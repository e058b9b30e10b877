(* Observability layer: operation-scoped traces, the Chrome trace file,
   the metrics registry, the legacy-Metrics-as-view guarantee, engine
   profiling, and report rendering. *)

open Helpers
module Trace = P2p_sim.Trace
module Engine = P2p_sim.Engine
module Metrics = P2p_net.Metrics
module Registry = P2p_obs.Registry
module Export = P2p_obs.Export
module Report = P2p_obs.Report
module Summary = P2p_stats.Summary
module Json = P2p_obs.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* A traced star system grown to [n] peers. *)
let traced_system ?(seed = 11) ?(n = 40) ?(ps = 0.5) () =
  let trace = Trace.create ~capacity:100_000 () in
  let h = H.create_star ~seed ~peers:200 ~trace () in
  let members = H.grow h ~count:n ~s_fraction:ps in
  (h, trace, members)

(* --- trace buffer semantics --- *)

let test_ring_buffer () =
  let t = Trace.create ~capacity:4 () in
  completed_ops t 10;
  checki "retained" 4 (List.length (Trace.spans t));
  checki "total" 10 (Trace.total_recorded t);
  checks "oldest retained" "7"
    (match Trace.spans t with s :: _ -> s.Trace.span_label | [] -> "");
  Trace.clear t;
  checki "cleared" 0 (List.length (Trace.spans t));
  checki "total survives clear" 10 (Trace.total_recorded t)

let test_reset () =
  let t = Trace.create ~capacity:4 () in
  completed_ops t 6;
  let op = Trace.begin_op t ~time:7.0 ~kind:Trace.Lookup "k" in
  checkb "op id advanced" true (op >= 0);
  checki "ops before reset" 7 (Trace.ops_started t);
  Trace.reset t;
  checki "reset empties" 0 (List.length (Trace.spans t));
  checki "reset zeroes total" 0 (Trace.total_recorded t);
  checki "reset zeroes ops" 0 (Trace.ops_started t);
  (* a reset trace behaves like a fresh one: ids restart at 0 *)
  let op = Trace.begin_op t ~time:8.0 ~kind:Trace.Insert "k2" in
  checki "ids restart" 0 op;
  Trace.mark_span t ~time:9.0 ~op ~tier:"x" ~phase:"p" "after";
  checki "records again" 2 (List.length (Trace.spans t))

(* Wraparound: the semantics of every read operation once more than
   [capacity] spans have been minted. *)
let test_wraparound () =
  let t = Trace.create ~capacity:5 () in
  let op_a = Trace.begin_op t ~time:0.0 ~kind:Trace.Lookup "a" in
  let op_b = Trace.begin_op t ~time:0.5 ~kind:Trace.Insert "b" in
  for i = 1 to 12 do
    let op = if i mod 2 = 0 then op_a else op_b in
    Trace.mark_span t ~time:(float_of_int i) ~op ~tier:"x"
      ~phase:(if i mod 3 = 0 then "three" else "other")
      (string_of_int i)
  done;
  (* 2 root spans + 12 marks = 14 minted, newest 5 retained *)
  checki "total counts evicted too" 14 (Trace.total_recorded t);
  Alcotest.check (Alcotest.list Alcotest.string) "oldest-first after wrap"
    [ "8"; "9"; "10"; "11"; "12" ] (span_labels (Trace.spans t));
  (* filters only see retained spans *)
  Alcotest.check (Alcotest.list Alcotest.string) "phase filter after wrap" [ "9"; "12" ]
    (span_labels
       (List.filter (fun (s : Trace.span) -> s.Trace.phase = "three") (Trace.spans t)));
  (* op correlation survives eviction of the op's root span *)
  Alcotest.check (Alcotest.list Alcotest.string) "op spans after wrap"
    [ "8"; "10"; "12" ] (span_labels (Trace.spans_of_op t op_a));
  (* minted ids keep counting: eviction never recycles them *)
  checki "ops minted" 2 (Trace.ops_started t);
  let op_c = Trace.begin_op t ~time:20.0 ~kind:Trace.Leave "c" in
  checki "next id past eviction" (op_b + 1) op_c;
  Trace.end_op t ~time:21.0 ~op:op_c "bye";
  match Trace.spans_of_op t op_c with
  | [ root ] -> checks "new op readable" "bye" root.Trace.span_outcome
  | _ -> Alcotest.fail "expected the new op's root span"

let test_op_kind_names () =
  List.iter
    (fun kind ->
      checkb
        (Trace.op_kind_to_string kind)
        true
        (Trace.op_kind_of_string (Trace.op_kind_to_string kind) = kind))
    [
      Trace.Insert; Trace.Lookup; Trace.T_join; Trace.S_join; Trace.Leave;
      Trace.Repair; Trace.Keyword; Trace.Custom "resync";
    ]

let test_begin_end_op () =
  let t = Trace.create ~capacity:64 () in
  let a = Trace.begin_op t ~time:1.0 ~kind:Trace.Lookup "key-a" in
  let b = Trace.begin_op t ~time:2.0 ~kind:Trace.Insert "key-b" in
  checki "consecutive ids" (a + 1) b;
  Trace.mark_span t ~time:3.0 ~op:a ~tier:"t_network" ~phase:"ring_hop" ~src:1 ~dst:2
    "hop";
  Trace.end_op t ~time:4.0 ~op:a "done";
  checki "ops minted" 2 (Trace.ops_started t);
  (match Trace.spans_of_op t a with
   | [ root; hop ] ->
     checks "root phase is the kind" "lookup" root.Trace.phase;
     checki "hop under the root" root.Trace.span_id hop.Trace.parent;
     checkb "root closed at end_op" true (root.Trace.span_stop = Some 4.0);
     checks "outcome on the root" "done" root.Trace.span_outcome
   | _ -> Alcotest.fail "expected root + hop for op a");
  (* ids are minted even when the trace is disabled *)
  let d = Trace.begin_op Trace.disabled ~time:0.0 ~kind:Trace.Lookup "x" in
  checkb "disabled still mints" true (d >= 0)

(* --- Chrome trace file --- *)

let with_trace_file f =
  let path = Filename.temp_file "p2p-trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_trace_file path =
  match Json.parse (Export.read_file path) with
  | Ok (Json.List events) -> events
  | Ok _ -> Alcotest.fail "trace file is not a JSON array"
  | Error e -> Alcotest.fail ("trace file does not parse: " ^ e)

let str_field name e = Option.bind (Json.member name e) Json.to_str

let args_field name e = Option.bind (Json.member "args" e) (Json.member name)

(* The written file is one JSON array: one [ph:"X"] event per completed
   span (open spans skipped), and every root span carries its outcome. *)
let test_chrome_synthetic () =
  let t = Trace.create ~capacity:64 () in
  let op = Trace.begin_op t ~time:0.25 ~kind:Trace.Lookup "file \"quoted\"\n" in
  let hop =
    Trace.begin_span t ~time:1.5 ~op ~tier:"t_network" ~phase:"ring_hop" ~src:3 ~dst:9
      "hop"
  in
  Trace.end_span t ~time:2.0 hop;
  ignore (Trace.begin_span t ~time:2.5 ~op ~tier:"s_network" ~phase:"flood" "open" : int);
  Trace.end_op t ~time:3.75 ~op "found at #%d" 9;
  ignore (Trace.begin_op t ~time:4.0 ~kind:Trace.Insert "still running" : int);
  with_trace_file (fun path ->
      Export.write_trace ~path t;
      let events = read_trace_file path in
      let xs = List.filter (fun e -> str_field "ph" e = Some "X") events in
      let completed =
        List.filter (fun (s : Trace.span) -> s.Trace.span_stop <> None) (Trace.spans t)
      in
      checki "one X event per completed span" (List.length completed) (List.length xs);
      let is_root e = args_field "parent" e = Some (Json.Int (-1)) in
      let roots = List.filter is_root xs in
      checki "one completed root" 1 (List.length roots);
      List.iter
        (fun e ->
          checkb "root carries its outcome" true
            (args_field "outcome" e = Some (Json.String "found at #9"));
          checkb "label survives escaping" true
            (args_field "label" e = Some (Json.String "file \"quoted\"\n")))
        roots;
      checkb "children carry no outcome" true
        (List.for_all (fun e -> is_root e || args_field "outcome" e = None) xs))

let test_chrome_system_trace () =
  let h, trace, _ = traced_system () in
  let keys = insert_items h ~count:20 in
  let r = lookup_sync h ~from:(H.random_peer h) ~key:(List.hd keys) () in
  checkb "lookup found" true (found r);
  with_trace_file (fun path ->
      Export.write_trace ~path trace;
      let xs =
        List.filter (fun e -> str_field "ph" e = Some "X") (read_trace_file path)
      in
      (* the lookup's spans all share its op id, and its root says where
         the item was found *)
      let root =
        List.find (fun e -> str_field "name" e = Some "lookup") (List.rev xs)
      in
      let op = args_field "op" root in
      let of_op = List.filter (fun e -> args_field "op" e = op) xs in
      checkb "lookup spans several events" true (List.length of_op >= 2);
      checkb "outcome names the holder" true
        (match args_field "outcome" root with
         | Some (Json.String o) -> String.length o > 8 && String.sub o 0 8 = "found at"
         | _ -> false))

let test_trace_determinism () =
  let run () =
    let h, trace, _ = traced_system ~seed:23 ~n:30 ~ps:0.6 () in
    let keys = insert_items h ~count:25 in
    List.iter
      (fun key -> ignore (lookup_sync h ~from:(H.random_peer h) ~key () : _))
      keys;
    H.repair h;
    H.run h;
    ( with_trace_file (fun path ->
          Export.write_trace ~path trace;
          Export.read_file path),
      Export.metrics_to_string (Metrics.registry (H.metrics h)) )
  in
  let trace1, metrics1 = run () in
  let trace2, metrics2 = run () in
  checkb "non-trivial trace" true (String.length trace1 > 2);
  checks "identical trace" trace1 trace2;
  checks "identical metrics" metrics1 metrics2

(* --- registry --- *)

let test_registry_basics () =
  let r = Registry.create () in
  let c = Registry.counter r ~subsystem:"sub" ~name:"count" in
  Registry.incr c;
  Registry.incr ~by:4 c;
  checki "counter" 5 (Registry.counter_value c);
  checkb "get-or-create" true (Registry.counter r ~subsystem:"sub" ~name:"count" == c);
  let g = Registry.gauge r ~subsystem:"sub" ~name:"depth" in
  Registry.set_max g 7.0;
  Registry.set_max g 3.0;
  checkb "high-water" true (Registry.gauge_value g = 7.0);
  let hist = Registry.histogram r ~subsystem:"sub" ~name:"lat" in
  List.iter (Registry.observe hist) [ 1.0; 2.0; 3.0 ];
  checki "samples" 3 (Summary.count (Registry.summary hist));
  Alcotest.check_raises "shape clash"
    (Invalid_argument "Registry.gauge: sub/count is not a gauge") (fun () ->
      ignore (Registry.gauge r ~subsystem:"sub" ~name:"count" : Registry.gauge));
  checki "subsystems" 1 (List.length (Registry.subsystems r));
  checki "bindings" 3 (List.length (Registry.bindings r))

let test_histogram_bins () =
  let s = Summary.create () in
  checki "empty" 0 (List.length (Registry.histogram_bins s));
  Summary.add s 5.0;
  Summary.add s 5.0;
  checki "constant collapses to one bucket" 1
    (List.length (Registry.histogram_bins s));
  List.iter (Summary.add s) [ 0.0; 10.0 ];
  let bins = Registry.histogram_bins ~bins:4 s in
  checki "requested bins" 4 (List.length bins);
  checki "samples conserved" 4 (List.fold_left (fun a (_, c) -> a + c) 0 bins)

let test_scripted_counters () =
  let h, _, _ = traced_system ~seed:31 ~n:20 () in
  let reg = Metrics.registry (H.metrics h) in
  let read name =
    Registry.counter_value (Registry.counter reg ~subsystem:"data_ops" ~name)
  in
  checki "fresh inserts" 0 (read "inserts");
  H.insert h ~from:(H.random_peer h) ~key:"the-item" ~value:"v" ();
  H.run h;
  checki "one insert" 1 (read "inserts");
  let r = lookup_sync h ~from:(H.random_peer h) ~key:"the-item" () in
  checkb "found" true (found r);
  checki "one lookup issued" 1 (read "lookups_issued");
  checki "one lookup succeeded" 1 (read "lookups_succeeded");
  checki "no failures" 0 (read "lookups_failed");
  checkb "messages flowed" true
    (Registry.counter_value
       (Registry.counter reg ~subsystem:"underlay" ~name:"messages")
    > 0)

let test_legacy_metrics_view () =
  let h, _, _ = traced_system ~seed:37 ~n:30 () in
  let keys = insert_items h ~count:15 in
  List.iter
    (fun key -> ignore (lookup_sync h ~from:(H.random_peer h) ~key () : _))
    keys;
  let m = H.metrics h in
  let reg = Metrics.registry m in
  let counter sub name =
    Registry.counter_value (Registry.counter reg ~subsystem:sub ~name)
  in
  checki "messages" (Metrics.messages m) (counter "underlay" "messages");
  checki "physical hops" (Metrics.physical_hops m) (counter "underlay" "physical_hops");
  checki "issued" (Metrics.lookups_issued m) (counter "data_ops" "lookups_issued");
  checki "succeeded" (Metrics.lookups_succeeded m)
    (counter "data_ops" "lookups_succeeded");
  checki "failed" (Metrics.lookups_failed m) (counter "data_ops" "lookups_failed");
  checki "connum" (Metrics.connum m) (counter "data_ops" "connum");
  let hist sub name =
    Registry.summary (Registry.histogram reg ~subsystem:sub ~name)
  in
  checkb "lookup latency shared" true
    (Metrics.lookup_latency m == hist "data_ops" "lookup_latency_ms");
  checkb "join hops shared" true
    (Metrics.join_hops m == hist "membership" "join_hops");
  checki "joins measured" 30 (Summary.count (Metrics.join_latency m))

(* --- engine profiling --- *)

let test_engine_profiling () =
  let h, _, _ = traced_system ~seed:41 ~n:10 () in
  let e = H.engine h in
  checkb "off by default" false (Engine.profiling e);
  Engine.enable_profiling e;
  checkb "on" true (Engine.profiling e);
  let keys = insert_items h ~count:10 in
  let r = lookup_sync h ~from:(H.random_peer h) ~key:(List.hd keys) () in
  checkb "found" true (found r);
  checkb "events executed" true (Engine.events_executed e > 0);
  checkb "queue high-water" true (Engine.queue_high_water e > 0);
  checki "drained" 0 (Engine.pending e);
  (* a lookup for an absent key fires its timer once per attempt *)
  checkb "absent key times out" false
    (found (lookup_sync h ~from:(H.random_peer h) ~key:"absent-key" ()));
  checki "drained again" 0 (Engine.pending e);
  let rows = List.map (fun (l, n, t) -> (l, (n, t))) (Engine.profile e) in
  let row label =
    match List.assoc_opt label rows with
    | None -> Alcotest.failf "no '%s' row in profile" label
    | Some (fires, cpu) ->
      checkb (label ^ " cpu time non-negative") true (cpu >= 0.0);
      fires
  in
  checkb "messages fired" true (row "message" > 0);
  checki "one timer fire per attempt" (1 + (H.config h).Config.reflood_attempts) (row "timer")

(* [Engine.charge] books CPU to a row of its own, one fire per call, and
   takes it out of the running event's row, so the rows still add up to
   what the handlers spent; charged outside an event it lands in its
   row alone.  The underlay charges its route reads to [routing], one
   fire per message between two hosts. *)
let test_engine_charge () =
  let e = Engine.create ~seed:1 () in
  Engine.enable_profiling e;
  Engine.charge e "routing" ~cpu_s:0.25;
  ignore
    (Engine.schedule e ~label:"message" ~delay:1.0 (fun () ->
         Engine.charge e "routing" ~cpu_s:1.0)
      : Engine.handle);
  Engine.run e;
  (match Engine.profile e with
   | [ ("message", 1, message); ("routing", 2, routing) ] ->
     checkb "both charges in the routing row" true (routing = 1.25);
     checkb "the inner one left the message row" true
       (message < 0.0 && message +. 1.0 >= 0.0)
   | rows -> Alcotest.failf "%d profile rows" (List.length rows));
  let h, _, _ = traced_system ~seed:41 ~n:10 () in
  Engine.enable_profiling (H.engine h);
  let sent = Metrics.messages (H.metrics h) in
  ignore (insert_items h ~count:10 : string list);
  let sent = Metrics.messages (H.metrics h) - sent in
  match List.find_opt (fun (l, _, _) -> l = "routing") (Engine.profile (H.engine h)) with
  | Some (_, fires, cpu) ->
    checkb "a fire per message routed" true (fires > 0 && fires <= sent);
    checkb "routing CPU non-negative" true (cpu >= 0.0)
  | None -> Alcotest.fail "no routing row"

(* The underlay splits its route reads by where they run: inside an
   event handler to [routing], in driver code between events (an issued
   insert's first send) to [routing-top].  Together the two rows have
   one fire per message between two distinct hosts. *)
let test_routing_rows () =
  let h, _, _ = traced_system ~seed:41 ~n:10 () in
  Engine.enable_profiling (H.engine h);
  let sent = Metrics.messages (H.metrics h) in
  ignore (insert_items h ~count:10 : string list);
  let sent = Metrics.messages (H.metrics h) - sent in
  let fires label =
    match List.find_opt (fun (l, _, _) -> l = label) (Engine.profile (H.engine h)) with
    | Some (_, fires, cpu) ->
      checkb (label ^ " CPU non-negative") true (cpu >= 0.0);
      fires
    | None -> 0
  in
  let inside = fires "routing" and top = fires "routing-top" in
  checkb "handlers' reads in the routing row" true (inside > 0);
  checkb (Printf.sprintf "at most one top-level read per insert (%d)" top) true
    (top > 0 && top <= 10);
  checkb "at most one fire per message" true (inside + top <= sent)

(* --- export + report --- *)

let test_metrics_json_roundtrip () =
  let h, _, _ = traced_system ~seed:43 ~n:25 () in
  let keys = insert_items h ~count:10 in
  ignore (lookup_sync h ~from:(H.random_peer h) ~key:(List.hd keys) () : _);
  let reg = Metrics.registry (H.metrics h) in
  match
    Result.bind (Json.parse (Export.metrics_to_string reg)) Registry.Doc.of_json
  with
  | Error e -> Alcotest.fail ("metrics JSON does not re-parse: " ^ e)
  | Ok parsed ->
    let live = Registry.doc reg in
    checki "same subsystems" (List.length live) (List.length parsed);
    List.iter2
      (fun (sub_l, ms_l) (sub_p, ms_p) ->
        checks "subsystem order" sub_l sub_p;
        checki (sub_l ^ " metric count") (List.length ms_l) (List.length ms_p))
      live parsed;
    checkb "renders non-trivially" true
      (String.length (Report.render parsed) > 100)

let test_report_render () =
  let h, _, _ = traced_system ~seed:47 ~n:25 () in
  let keys = insert_items h ~count:10 in
  ignore (lookup_sync h ~from:(H.random_peer h) ~key:(List.hd keys) () : _);
  let reg = Metrics.registry (H.metrics h) in
  let rendered = Report.render (Registry.doc reg) in
  let contains needle =
    let n = String.length needle and hs = String.length rendered in
    let rec scan i =
      i + n <= hs && (String.sub rendered i n = needle || scan (i + 1))
    in
    scan 0
  in
  checkb "underlay section" true (contains "== underlay ==");
  checkb "data_ops section" true (contains "== data_ops ==");
  checkb "membership section" true (contains "== membership ==");
  checkb "counter row" true (contains "lookups_issued");
  checkb "histogram bars" true (contains "|#")

let contains ~haystack needle =
  let n = String.length needle and hs = String.length haystack in
  let rec scan i = i + n <= hs && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

(* The audit subsystem renders as a health table; reports without audit
   metrics must render exactly as before (old JSON stays readable). *)
let test_report_health_section () =
  let reg = Registry.create () in
  Registry.incr ~by:7 (Registry.counter reg ~subsystem:"audit" ~name:"ticks");
  ignore
    (Registry.counter reg ~subsystem:"audit" ~name:"ring_symmetry_violations"
      : Registry.counter);
  Registry.set (Registry.gauge reg ~subsystem:"audit" ~name:"ring_symmetry_last_run_ms") 125.0;
  Registry.incr ~by:2
    (Registry.counter reg ~subsystem:"audit" ~name:"tree_structure_violations");
  Registry.set (Registry.gauge reg ~subsystem:"audit" ~name:"items_gini") 0.31;
  Registry.incr (Registry.counter reg ~subsystem:"other" ~name:"n");
  let rendered = Report.render (Registry.doc reg) in
  checkb "health heading" true (contains ~haystack:rendered "== health (audit) ==");
  checkb "tick row" true (contains ~haystack:rendered "audit ticks");
  checkb "clean check is OK" true (contains ~haystack:rendered "ring_symmetry        OK");
  checkb "freshness shown" true (contains ~haystack:rendered "last run 125 ms");
  checkb "violated check" true (contains ~haystack:rendered "VIOLATED (2)");
  checkb "health gauges still shown" true (contains ~haystack:rendered "items_gini");
  checkb "other subsystems untouched" true (contains ~haystack:rendered "== other ==");
  (* no audit subsystem -> no health section, graceful degradation *)
  let plain = Registry.create () in
  Registry.incr (Registry.counter plain ~subsystem:"underlay" ~name:"messages");
  let rendered = Report.render (Registry.doc plain) in
  checkb "no spurious health section" false (contains ~haystack:rendered "health")

let test_export_files () =
  let h, trace, _ = traced_system ~seed:53 ~n:15 () in
  let keys = insert_items h ~count:5 in
  ignore (lookup_sync h ~from:(H.random_peer h) ~key:(List.hd keys) () : _);
  let dir = Filename.temp_file "p2p-obs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let tpath = Filename.concat dir "t.json"
  and mpath = Filename.concat dir "m.json" in
  Export.write_trace ~path:tpath trace;
  Export.write_metrics ~path:mpath (Metrics.registry (H.metrics h));
  checkb "trace re-reads" true (Result.is_ok (Json.parse (Export.read_file tpath)));
  checkb "metrics re-read" true
    (Result.is_ok
       (Result.bind (Json.parse (Export.read_file mpath)) Registry.Doc.of_json));
  List.iter Sys.remove [ tpath; mpath ];
  Sys.rmdir dir

(* A transit-stub [run] exports the shortest-path solves its router
   made as [underlay/route_solves]: some, and as many on a second run of
   the same seed. *)
let test_route_solves_exported () =
  let solves () =
    let path = Filename.temp_file "p2psim" ".json" in
    let code =
      Sys.command
        (Printf.sprintf
           "../bin/p2psim.exe run --seed 7 --peers 200 --items 100 --lookups 100 \
            --metrics-out %s > /dev/null 2>&1"
           (Filename.quote path))
    in
    checki "exit" 0 code;
    let doc = Result.bind (Json.parse (Export.read_file path)) Registry.Doc.of_json in
    Sys.remove path;
    match doc with
    | Ok doc -> (
      match Registry.Doc.find doc ~subsystem:"underlay" ~name:"route_solves" with
      | Some (Registry.Doc.Counter n) -> n
      | Some _ | None -> Alcotest.fail "no underlay/route_solves counter")
    | Error e -> Alcotest.failf "metrics do not decode: %s" e
  in
  let first = solves () in
  checkb "some solves" true (first > 0);
  checki "same seed, same solves" first (solves ())

(* --- log-histogram JSON round-trip and cluster merge --- *)

module Log_hist = P2p_obs.Log_hist
module Scrape = P2p_obs.Scrape

let reparse h =
  match Log_hist.of_json (Log_hist.to_json h) with
  | Ok h' -> h'
  | Error e -> Alcotest.fail ("log hist re-parse: " ^ e)

let hist_equal a b =
  Log_hist.count a = Log_hist.count b
  && Log_hist.buckets a = Log_hist.buckets b
  && Log_hist.sum a = Log_hist.sum b
  && (Log_hist.count a = 0
      || Log_hist.min_value a = Log_hist.min_value b
         && Log_hist.max_value a = Log_hist.max_value b)

let test_log_hist_json_roundtrip () =
  (* empty, single-bucket, and a spread distribution all survive *)
  let empty = Log_hist.create () in
  checkb "empty round-trips" true (hist_equal empty (reparse empty));
  let single = Log_hist.create () in
  Log_hist.observe single 5.0;
  Log_hist.observe single 5.0;
  checkb "single bucket round-trips" true (hist_equal single (reparse single));
  let spread = Log_hist.create () in
  List.iter (Log_hist.observe spread) [ 0.1; 1.0; 2.5; 40.0; 900.0; 900.0 ];
  let spread' = reparse spread in
  checkb "spread round-trips" true (hist_equal spread spread');
  checkb "percentiles agree after round-trip" true
    (Log_hist.percentile spread 99.0 = Log_hist.percentile spread' 99.0)

let test_log_hist_parse_then_merge () =
  (* serialize -> parse -> merge must equal merging the live values:
     the aggregator path (scrape JSON in between) loses nothing *)
  let a = Log_hist.create () and b = Log_hist.create () in
  List.iter (Log_hist.observe a) [ 1.0; 3.0; 3.2; 77.0 ];
  List.iter (Log_hist.observe b) [ 0.5; 3.1; 900.0 ];
  let direct = Log_hist.merge a b in
  let via_json = Log_hist.merge (reparse a) (reparse b) in
  checkb "merge of parsed equals direct merge" true (hist_equal direct via_json);
  (* merge_into agrees with merge *)
  let into = reparse a in
  Log_hist.merge_into ~into (reparse b);
  checkb "merge_into equals merge" true (hist_equal direct into);
  (* merging an empty histogram is the identity *)
  let into = reparse a in
  Log_hist.merge_into ~into (Log_hist.create ());
  checkb "empty merge is identity" true (hist_equal a into)

(* --- scrape snapshots and their cluster merge --- *)

let scrape_snapshot ~node samples =
  let reg = Registry.create () in
  let h = Registry.log_histogram reg ~subsystem:"latency" ~name:"lookup_total_ms" in
  List.iter (Log_hist.observe h) samples;
  Registry.incr ~by:(10 * (node + 1))
    (Registry.counter reg ~subsystem:"wire" ~name:"msgs_sent");
  Registry.set_max
    (Registry.gauge reg ~subsystem:"ring" ~name:"store")
    (float_of_int (5 * (node + 1)));
  {
    Scrape.node;
    at = 1000.0 +. float_of_int node;
    uptime_ms = 500.0;
    ready = true;
    p_id = node * 100;
    succ = (node + 1) mod 4;
    pred = (node + 3) mod 4;
    store = 5 * (node + 1);
    violations = 0;
    metrics = Registry.doc reg;
    trace = [];
  }

let test_scrape_roundtrip () =
  let s = scrape_snapshot ~node:2 [ 1.0; 2.0 ] in
  match Scrape.of_string (Scrape.to_string s) with
  | Error e -> Alcotest.fail e
  | Ok s' ->
    checki "node survives" s.Scrape.node s'.Scrape.node;
    checkb "ready survives" s.Scrape.ready s'.Scrape.ready;
    checki "store survives" s.Scrape.store s'.Scrape.store;
    (* compare the metrics by what the aggregator extracts *)
    let reg = Scrape.merge [ s'.Scrape.metrics ] in
    checki "counters survive" 30
      (Registry.counter_value
         (Registry.counter reg ~subsystem:"wire" ~name:"msgs_sent"));
    checki "histogram samples survive" 2
      (Log_hist.count
         (Registry.log_histogram reg ~subsystem:"latency"
            ~name:"lookup_total_ms"))

let test_scrape_rejects_foreign () =
  checkb "wrong type rejected" true
    (Result.is_error (Scrape.of_string "{\"type\":\"nope\",\"version\":1}"));
  checkb "future version rejected" true
    (Result.is_error (Scrape.of_string "{\"type\":\"scrape\",\"version\":99}"));
  checkb "garbage rejected" true (Result.is_error (Scrape.of_string "{"))

let test_scrape_merged_registry () =
  let snaps =
    [
      scrape_snapshot ~node:0 [ 1.0; 2.0; 4.0 ];
      scrape_snapshot ~node:1 [ 8.0; 16.0 ];
      scrape_snapshot ~node:2 [];
    ]
  in
  let merged = Scrape.merged_registry snaps in
  checki "counters sum across nodes" 60
    (Registry.counter_value
       (Registry.counter merged ~subsystem:"wire" ~name:"msgs_sent"));
  checkb "gauges keep the cluster maximum" true
    (Registry.gauge_value (Registry.gauge merged ~subsystem:"ring" ~name:"store")
     = 15.0);
  let h =
    Registry.log_histogram merged ~subsystem:"latency" ~name:"lookup_total_ms"
  in
  checki "histograms hold every node's samples" 5 (Log_hist.count h);
  (* p99 of the merged distribution tracks the global tail (node 1's),
     which per-node averaging would have hidden *)
  checkb "merged p99 is the global tail" true (Log_hist.percentile h 99.0 >= 16.0)

let test_scrape_merged_chrome () =
  let span pid name =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "X");
        ("pid", Json.Int pid);
        ("tid", Json.Int 7);
        ("ts", Json.Float 1.0);
        ("dur", Json.Float 2.0);
      ]
  in
  let meta pid =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
      ]
  in
  let snaps =
    [
      { (scrape_snapshot ~node:0 []) with Scrape.trace = [ meta 0; span 0 "a" ] };
      { (scrape_snapshot ~node:1 []) with Scrape.trace = [ meta 1; span 1 "b" ] };
    ]
  in
  match Scrape.merged_chrome snaps with
  | Json.List events ->
    let phase e =
      match Json.member "ph" e with Some (Json.String p) -> p | _ -> "?"
    in
    let metas = List.filter (fun e -> phase e = "M") events in
    let spans = List.filter (fun e -> phase e = "X") events in
    checki "one re-derived process_name per node" 2 (List.length metas);
    checki "both nodes' spans pooled" 2 (List.length spans)
  | _ -> Alcotest.fail "merged chrome is not a list"

let test_scrape_render_table () =
  let snaps = [ scrape_snapshot ~node:0 [ 1.0 ]; scrape_snapshot ~node:1 [ 2.0 ] ] in
  let table = Scrape.render_table snaps in
  checkb "has per-node rows" true (contains ~haystack:table "store");
  checkb "has the cluster summary" true (contains ~haystack:table "cluster:")

(* --- the metrics codec, pinned --- *)

(* One fixed registry carrying every metric shape, an empty summary and
   an empty log histogram included, plus the three subsystems the
   renderer lays out specially: gc, audit and latency. *)
let golden_registry () =
  let reg = Registry.create () in
  let counter subsystem name by =
    Registry.incr ~by (Registry.counter reg ~subsystem ~name)
  in
  let gauge subsystem name v = Registry.set (Registry.gauge reg ~subsystem ~name) v in
  let log subsystem name samples =
    List.iter (Log_hist.observe (Registry.log_histogram reg ~subsystem ~name)) samples
  in
  counter "underlay" "messages" 1234;
  gauge "underlay" "hops_per_message" 3.25;
  List.iter
    (Registry.observe
       (Registry.histogram reg ~subsystem:"data_ops" ~name:"lookup_latency_ms"))
    [ 1.0; 2.0; 2.0; 3.0; 5.0; 8.0; 13.0; 21.0 ];
  ignore
    (Registry.histogram reg ~subsystem:"data_ops" ~name:"insert_latency_ms"
      : Registry.histogram);
  log "data_ops" "lookup_hops" [ 1.0; 2.0; 2.0; 4.0; 9.0 ];
  log "data_ops" "repair_ms" [];
  gauge "gc" "alloc_rate_mb_s" 512.5;
  gauge "gc" "heap_mb" 12.0;
  gauge "gc" "minor_collections" 42.0;
  gauge "gc" "major_collections" 3.0;
  gauge "gc" "compactions" 0.0;
  counter "audit" "ticks" 7;
  counter "audit" "ring_symmetry_violations" 0;
  gauge "audit" "ring_symmetry_last_run_ms" 125.0;
  counter "audit" "tree_structure_violations" 2;
  gauge "audit" "items_gini" 0.31;
  counter "latency" "ops_analyzed" 5;
  log "latency" "lookup_total_ms" [ 4.0; 8.0; 8.5; 16.0; 40.0 ];
  log "latency" "lookup_critical_ms" [ 3.0; 7.0; 8.0; 15.0; 33.0 ];
  log "latency" "insert_total_ms" [];
  gauge "latency" "lookup_tier_t_ring_ms" 48.5;
  gauge "latency" "lookup_tier_s_tree_ms" 12.0;
  reg

let test_report_golden () =
  checks "render matches golden/report.txt"
    (Export.read_file "golden/report.txt")
    (Report.render (Registry.doc (golden_registry ())))

(* What [cluster-report] prints over three scraped nodes: the per-node
   table, then the merged registry's report. *)
let test_cluster_report_golden () =
  let snaps =
    [
      scrape_snapshot ~node:0 [ 1.0; 2.0; 4.0 ];
      scrape_snapshot ~node:1 [ 8.0; 16.0 ];
      scrape_snapshot ~node:2 [];
    ]
  in
  let merged = Scrape.merged_registry snaps in
  checks "table and report match golden/cluster_report.txt"
    (Export.read_file "golden/cluster_report.txt")
    (Scrape.render_table snaps ^ "\n" ^ Report.render (Registry.doc merged))

let test_metrics_codec_roundtrip () =
  let encoded = Json.to_string (Registry.to_json (golden_registry ())) in
  (match Result.bind (Json.parse encoded) Registry.Doc.of_json with
   | Error e -> Alcotest.fail ("registry document does not decode: " ^ e)
   | Ok doc ->
     checks "registry document re-encodes byte for byte" encoded
       (Json.to_string (Registry.Doc.to_json doc)));
  let encoded = Scrape.to_string (scrape_snapshot ~node:1 [ 1.0; 2.5; 900.0 ]) in
  match Scrape.of_string encoded with
  | Error e -> Alcotest.fail ("scrape does not decode: " ^ e)
  | Ok s -> checks "scrape re-encodes byte for byte" encoded (Scrape.to_string s)

(* A snapshot is decoded whole: metrics that are not a metrics document
   reject it at [of_string], like a malformed envelope. *)
let test_scrape_rejects_bad_metrics () =
  let with_metrics metrics =
    match Scrape.to_json (scrape_snapshot ~node:0 [ 1.0 ]) with
    | Json.Obj fields ->
      Json.to_string
        (Json.Obj
           (List.map
              (fun (k, v) -> if k = "metrics" then (k, metrics) else (k, v))
              fields))
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  let metric m = Json.Obj [ ("wire", Json.Obj [ ("msgs_sent", m) ]) ] in
  checkb "intact snapshot accepted" true
    (Result.is_ok (Scrape.of_string (with_metrics (Json.Obj []))));
  List.iter
    (fun (label, metrics) ->
      checkb label true (Result.is_error (Scrape.of_string (with_metrics metrics))))
    [
      ("metrics not an object", Json.List []);
      ("subsystem not an object", Json.Obj [ ("wire", Json.Int 3) ]);
      ("unknown kind", metric (Json.Obj [ ("kind", Json.String "bogus") ]));
      ("no kind", metric (Json.Obj [ ("value", Json.Int 3) ]));
      ( "counter without value",
        metric (Json.Obj [ ("kind", Json.String "counter") ]) );
      ( "histogram without stats",
        metric (Json.Obj [ ("kind", Json.String "histogram"); ("count", Json.Int 2) ]) );
      ( "log histogram without buckets",
        metric
          (Json.Obj
             [ ("kind", Json.String "log_histogram"); ("count", Json.Int 1);
               ("sum", Json.Float 1.0) ]) );
    ]

let suite =
  [
    Alcotest.test_case "trace: ring buffer" `Quick test_ring_buffer;
    Alcotest.test_case "trace: reset" `Quick test_reset;
    Alcotest.test_case "trace: wraparound" `Quick test_wraparound;
    Alcotest.test_case "trace: op kind names" `Quick test_op_kind_names;
    Alcotest.test_case "trace: begin/end op" `Quick test_begin_end_op;
    Alcotest.test_case "chrome: synthetic trace" `Quick test_chrome_synthetic;
    Alcotest.test_case "chrome: system trace" `Quick test_chrome_system_trace;
    Alcotest.test_case "trace: deterministic across runs" `Quick test_trace_determinism;
    Alcotest.test_case "registry: shapes" `Quick test_registry_basics;
    Alcotest.test_case "registry: histogram bins" `Quick test_histogram_bins;
    Alcotest.test_case "registry: scripted counters" `Quick test_scripted_counters;
    Alcotest.test_case "registry: legacy metrics view" `Quick test_legacy_metrics_view;
    Alcotest.test_case "engine: profiling" `Quick test_engine_profiling;
    Alcotest.test_case "engine: charged rows" `Quick test_engine_charge;
    Alcotest.test_case "profile: route reads between events in a row apart" `Quick
      test_routing_rows;
    Alcotest.test_case "report: json round-trip" `Quick test_metrics_json_roundtrip;
    Alcotest.test_case "report: render" `Quick test_report_render;
    Alcotest.test_case "report: health section" `Quick test_report_health_section;
    Alcotest.test_case "export: files" `Quick test_export_files;
    Alcotest.test_case "export: route solves" `Quick test_route_solves_exported;
    Alcotest.test_case "log hist: json round-trip" `Quick
      test_log_hist_json_roundtrip;
    Alcotest.test_case "log hist: parse-then-merge equals direct merge" `Quick
      test_log_hist_parse_then_merge;
    Alcotest.test_case "scrape: snapshot round-trip" `Quick test_scrape_roundtrip;
    Alcotest.test_case "scrape: rejects foreign documents" `Quick
      test_scrape_rejects_foreign;
    Alcotest.test_case "scrape: merged registry semantics" `Quick
      test_scrape_merged_registry;
    Alcotest.test_case "scrape: merged chrome trace" `Quick
      test_scrape_merged_chrome;
    Alcotest.test_case "scrape: rendered table" `Quick test_scrape_render_table;
    Alcotest.test_case "report: golden render" `Quick test_report_golden;
    Alcotest.test_case "scrape: golden cluster report" `Quick
      test_cluster_report_golden;
    Alcotest.test_case "registry: codec round-trip" `Quick
      test_metrics_codec_roundtrip;
    Alcotest.test_case "scrape: undecodable metrics rejected" `Quick
      test_scrape_rejects_bad_metrics;
  ]
