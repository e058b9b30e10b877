(* Tests for the tooling layer: Trace (sim), Ascii_plot (stats) and the
   Scenario runner. *)

module Trace = P2p_sim.Trace
module Ascii_plot = P2p_stats.Ascii_plot
module Scenario = P2p_scenario.Scenario
module H = Hybrid_p2p.Hybrid

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

(* --- Trace --- *)

let test_trace_records_in_order () =
  let t = Trace.create ~capacity:10 () in
  let op = Trace.begin_op t ~time:1.0 ~kind:Trace.Lookup "first" in
  Trace.mark_span t ~time:2.0 ~op ~tier:"t_network" ~phase:"ring_hop" "second";
  checki "total" 2 (Trace.total_recorded t);
  match Trace.spans t with
  | [ s1; s2 ] ->
    Alcotest.check Alcotest.string "first label" "first" s1.Trace.span_label;
    Alcotest.check Alcotest.string "second phase" "ring_hop" s2.Trace.phase
  | _ -> Alcotest.fail "expected two spans"

let test_trace_ring_overwrites () =
  let t = Trace.create ~capacity:3 () in
  Helpers.completed_ops t 5;
  checki "total counts everything" 5 (Trace.total_recorded t);
  Alcotest.check (Alcotest.list Alcotest.string) "keeps the newest" [ "3"; "4"; "5" ]
    (Helpers.span_labels (Trace.spans t))

let test_trace_find_and_clear () =
  let t = Trace.create ~capacity:10 () in
  let op = Trace.begin_op t ~time:1.0 ~kind:Trace.T_join "a" in
  Trace.mark_span t ~time:2.0 ~op ~tier:"t_network" ~phase:"ring_hop" "b";
  Trace.mark_span t ~time:3.0 ~op ~tier:"t_network" ~phase:"ring_hop" "c";
  checki "two ring hops" 2
    (List.length
       (List.filter (fun (s : Trace.span) -> s.Trace.phase = "ring_hop") (Trace.spans t)));
  Trace.clear t;
  checki "cleared" 0 (List.length (Trace.spans t));
  checki "lifetime counter survives" 3 (Trace.total_recorded t)

(* A disabled trace records nothing and never runs end_op's formatting. *)
let test_trace_disabled_is_noop () =
  let t = Trace.disabled in
  checkb "disabled" false (Trace.enabled t);
  let op = Trace.begin_op t ~time:1.0 ~kind:Trace.Lookup "k" in
  Trace.mark_span t ~time:1.0 ~op ~tier:"x" ~phase:"p" "dropped";
  let formatted = ref false in
  Trace.end_op t ~time:2.0 ~op "%t" (fun () -> formatted := true; "");
  checkb "outcome not formatted" false !formatted;
  checki "nothing retained" 0 (List.length (Trace.spans t))

let test_trace_end_op_outcome () =
  let t = Trace.create ~capacity:4 () in
  let op = Trace.begin_op t ~time:1.0 ~kind:Trace.Lookup "k" in
  Trace.end_op t ~time:2.0 ~op "%d-%s" 42 "x";
  Alcotest.check Alcotest.string "formatted onto the root" "42-x"
    (List.hd (Trace.spans t)).Trace.span_outcome

let test_trace_captures_system_messages () =
  let trace = Trace.create ~capacity:1000 () in
  let g = P2p_topology.Graph.create 4 in
  P2p_topology.Graph.add_edge g 0 1 ~latency:1.0;
  P2p_topology.Graph.add_edge g 1 2 ~latency:1.0;
  P2p_topology.Graph.add_edge g 2 3 ~latency:1.0;
  let h =
    H.create ~seed:81 ~routing:(P2p_topology.Routing.create g) ~trace ()
  in
  ignore (H.join h ~host:0 () : Hybrid_p2p.Peer.t);
  H.run h;
  ignore (H.join h ~host:1 ~role:Hybrid_p2p.Peer.S_peer () : Hybrid_p2p.Peer.t);
  H.run h;
  (* the s-join's messages are spans carrying their two hosts *)
  checkb "messages traced" true
    (List.exists
       (fun (s : Trace.span) -> s.Trace.span_src <> None && s.Trace.span_dst <> None)
       (Trace.spans trace))

(* --- Ascii_plot --- *)

let test_plot_dimensions () =
  let series =
    [ { Ascii_plot.name = "one"; points = [ (0.0, 0.0); (1.0, 1.0); (2.0, 4.0) ] } ]
  in
  let chart = Ascii_plot.line_chart ~width:40 ~height:8 ~series () in
  let lines = String.split_on_char '\n' chart in
  (* 8 grid rows + axis + x labels + 1 legend + trailing *)
  checki "line count" 12 (List.length lines);
  checkb "contains glyph" true (String.contains chart '*');
  checkb "contains legend" true (List.exists (contains ~needle:"one") lines)

let test_plot_empty () =
  Alcotest.check Alcotest.string "placeholder" "(empty chart)\n"
    (Ascii_plot.line_chart ~series:[ { Ascii_plot.name = "e"; points = [] } ] ());
  Alcotest.check_raises "width too small" (Invalid_argument "Ascii_plot.line_chart: width")
    (fun () ->
      ignore (Ascii_plot.line_chart ~width:5 ~series:[] () : string))

let test_plot_two_series_glyphs () =
  let series =
    [ { Ascii_plot.name = "a"; points = [ (0.0, 0.0); (1.0, 1.0) ] };
      { Ascii_plot.name = "b"; points = [ (0.0, 1.0); (1.0, 0.0) ] } ]
  in
  let chart = Ascii_plot.line_chart ~width:20 ~height:6 ~series () in
  checkb "first glyph" true (String.contains chart '*');
  checkb "second glyph" true (String.contains chart 'o')

let test_plot_constant_series () =
  (* constant y must not divide by zero *)
  let series = [ { Ascii_plot.name = "flat"; points = [ (0.0, 5.0); (1.0, 5.0) ] } ] in
  checkb "renders" true (String.length (Ascii_plot.line_chart ~series ()) > 0)

let test_histogram_bars () =
  let out = Ascii_plot.histogram ~width:10 ~bars:[ ("a", 10.0); ("bb", 5.0) ] () in
  let lines = String.split_on_char '\n' out in
  (match lines with
   | a :: b :: _ ->
     checkb "full bar" true (contains ~needle:"##########" a);
     checkb "half bar" true (contains ~needle:"#####" b)
   | _ -> Alcotest.fail "expected two bars");
  Alcotest.check Alcotest.string "empty" "(empty histogram)\n"
    (Ascii_plot.histogram ~bars:[] ())

(* --- Scenario --- *)

let test_scenario_basic_flow () =
  let h = H.create_star ~seed:82 ~peers:256 () in
  let report =
    Scenario.run h ~seed:1
      ~script:
        [ Scenario.Join_many (60, 0.7); Scenario.Insert_items 100; Scenario.Settle;
          Scenario.Lookup_items 100; Scenario.Settle ]
  in
  checki "joined" 60 report.Scenario.joined;
  checki "inserted" 100 report.Scenario.inserted;
  checki "all lookups ok" 100 report.Scenario.lookups_ok;
  checki "final peers" 60 report.Scenario.final_peers;
  checki "final items" 100 report.Scenario.final_items;
  checkb "invariants" true (Result.is_ok report.Scenario.invariants)

let test_scenario_crash_storm () =
  let h = H.create_star ~seed:83 ~peers:256 () in
  let report =
    Scenario.run h ~seed:2
      ~script:
        [ Scenario.Join_many (80, 0.7); Scenario.Insert_items 200;
          Scenario.Crash_fraction 0.25; Scenario.Repair;
          Scenario.Lookup_items 200 ]
  in
  checki "crashed" 20 report.Scenario.crashed;
  checki "population" 60 report.Scenario.final_peers;
  checkb "data lost" true (report.Scenario.final_items < 200);
  checkb "failures reflect the loss" true (report.Scenario.lookups_failed > 0);
  checkb "invariants" true (Result.is_ok report.Scenario.invariants)

let test_scenario_implicit_repair () =
  (* a script that crashes without repairing still ends checkable *)
  let h = H.create_star ~seed:84 ~peers:128 () in
  let report =
    Scenario.run h ~seed:3
      ~script:[ Scenario.Join_many (30, 0.6); Scenario.Crash_random; Scenario.Crash_random ]
  in
  checki "two crashed" 2 report.Scenario.crashed;
  checkb "invariants after implicit repair" true (Result.is_ok report.Scenario.invariants)

let test_scenario_lookup_before_insert () =
  let h = H.create_star ~seed:85 ~peers:64 () in
  let report =
    Scenario.run h ~seed:4
      ~script:[ Scenario.Join_many (10, 0.5); Scenario.Lookup_items 5 ]
  in
  checki "counted as failed" 5 report.Scenario.lookups_failed

let test_scenario_mixed_churn () =
  let h = H.create_star ~seed:86 ~peers:256 () in
  let report =
    Scenario.run h ~seed:5
      ~script:
        [ Scenario.Join_many (50, 0.7); Scenario.Insert_items 100;
          Scenario.Leave_random; Scenario.Leave_random; Scenario.Join_t;
          Scenario.Join_s; Scenario.Crash_random; Scenario.Repair;
          Scenario.Lookup_items 100; Scenario.Advance 1000.0 ]
  in
  checki "population tracks churn" (50 - 2 + 2 - 1) report.Scenario.final_peers;
  checkb "invariants" true (Result.is_ok report.Scenario.invariants)

let suite =
  [
    Alcotest.test_case "trace: in-order recording" `Quick test_trace_records_in_order;
    Alcotest.test_case "trace: ring overwrite" `Quick test_trace_ring_overwrites;
    Alcotest.test_case "trace: find and clear" `Quick test_trace_find_and_clear;
    Alcotest.test_case "trace: disabled no-op" `Quick test_trace_disabled_is_noop;
    Alcotest.test_case "trace: end_op outcome" `Quick test_trace_end_op_outcome;
    Alcotest.test_case "trace: captures system messages" `Quick
      test_trace_captures_system_messages;
    Alcotest.test_case "plot: dimensions" `Quick test_plot_dimensions;
    Alcotest.test_case "plot: empty and invalid" `Quick test_plot_empty;
    Alcotest.test_case "plot: two series" `Quick test_plot_two_series_glyphs;
    Alcotest.test_case "plot: constant series" `Quick test_plot_constant_series;
    Alcotest.test_case "plot: histogram" `Quick test_histogram_bars;
    Alcotest.test_case "scenario: basic flow" `Quick test_scenario_basic_flow;
    Alcotest.test_case "scenario: crash storm" `Quick test_scenario_crash_storm;
    Alcotest.test_case "scenario: implicit repair" `Quick test_scenario_implicit_repair;
    Alcotest.test_case "scenario: lookup before insert" `Quick
      test_scenario_lookup_before_insert;
    Alcotest.test_case "scenario: mixed churn" `Quick test_scenario_mixed_churn;
  ]
