(* Tests for P2p_net: Metrics accounting and Underlay message delivery. *)

module Engine = P2p_sim.Engine
module Graph = P2p_topology.Graph
module Routing = P2p_topology.Routing
module Link_stress = P2p_topology.Link_stress
module Metrics = P2p_net.Metrics
module Underlay = P2p_net.Underlay
module Summary = P2p_stats.Summary

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.record_message m ~physical_hops:3;
  Metrics.record_message m ~physical_hops:2;
  checki "messages" 2 (Metrics.messages m);
  checki "physical hops" 5 (Metrics.physical_hops m);
  Metrics.record_lookup_issued m;
  Metrics.record_lookup_issued m;
  Metrics.record_lookup_success m ~latency:10.0 ~hops:4;
  Metrics.record_lookup_failure m;
  checki "issued" 2 (Metrics.lookups_issued m);
  checki "succeeded" 1 (Metrics.lookups_succeeded m);
  checki "failed" 1 (Metrics.lookups_failed m);
  checkf "failure ratio" 0.5 (Metrics.failure_ratio m);
  Metrics.record_contact m;
  Metrics.record_contacts m 4;
  checki "connum" 5 (Metrics.connum m);
  checkf "lookup latency mean" 10.0 (Summary.mean (Metrics.lookup_latency m));
  checkf "lookup hops mean" 4.0 (Summary.mean (Metrics.lookup_hops m))

let test_metrics_empty_ratio () =
  let m = Metrics.create () in
  checkf "no lookups -> ratio 0" 0.0 (Metrics.failure_ratio m)

let test_metrics_join () =
  let m = Metrics.create () in
  Metrics.record_join m ~latency:5.0 ~hops:2;
  Metrics.record_join m ~latency:7.0 ~hops:4;
  checkf "join latency mean" 6.0 (Summary.mean (Metrics.join_latency m));
  checkf "join hops mean" 3.0 (Summary.mean (Metrics.join_hops m))

let line_underlay ?(processing_delay = 0.0) ?stress n =
  let g = Graph.create n in
  for i = 0 to n - 2 do
    Graph.add_edge g i (i + 1) ~latency:2.0
  done;
  let engine = Engine.create ~seed:1 () in
  let metrics = Metrics.create () in
  let routing = Routing.create g in
  let u = Underlay.create ~engine ~routing ~metrics ?stress ~processing_delay () in
  (engine, metrics, u, g)

let test_underlay_delivery_latency () =
  let engine, _, u, _ = line_underlay 4 in
  let arrival = ref nan in
  Underlay.send u ~src:0 ~dst:3 (fun () -> arrival := Engine.now engine);
  Engine.run engine;
  checkf "3 links x 2ms" 6.0 !arrival

let test_underlay_processing_delay () =
  let engine, _, u, _ = line_underlay ~processing_delay:0.5 4 in
  let arrival = ref nan in
  Underlay.send u ~src:0 ~dst:1 (fun () -> arrival := Engine.now engine);
  Engine.run engine;
  checkf "2ms + 0.5ms" 2.5 !arrival;
  checkf "delay function agrees" 2.5 (Underlay.delay u ~src:0 ~dst:1)

let test_underlay_self_send () =
  let engine, _, u, _ = line_underlay ~processing_delay:0.25 3 in
  let arrival = ref nan in
  Underlay.send u ~src:1 ~dst:1 (fun () -> arrival := Engine.now engine);
  Engine.run engine;
  checkf "self send costs only processing" 0.25 !arrival

let test_underlay_message_metrics () =
  let _, metrics, u, _ = line_underlay 5 in
  Underlay.send u ~src:0 ~dst:4 (fun () -> ());
  Underlay.send u ~src:1 ~dst:1 (fun () -> ());
  checki "messages" 2 (Metrics.messages metrics);
  checki "physical hops: 4 + 0" 4 (Metrics.physical_hops metrics)

let test_underlay_stress_accounting () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 ~latency:1.0;
  Graph.add_edge g 1 2 ~latency:1.0;
  let stress = Link_stress.create g in
  let engine = Engine.create ~seed:1 () in
  let metrics = Metrics.create () in
  let u =
    Underlay.create ~engine ~routing:(Routing.create g) ~metrics ~stress
      ~processing_delay:0.0 ()
  in
  Underlay.send u ~src:0 ~dst:2 (fun () -> ());
  Underlay.send u ~src:0 ~dst:2 (fun () -> ());
  checki "link 0-1 stress" 2 (Link_stress.stress stress 0 1);
  checki "link 1-2 stress" 2 (Link_stress.stress stress 1 2)

(* Over link-state tables (backbone 0 -- 1, stub domains {2,3,4} on 0
   and {5,6} on 1, node 7 a stub domain with no access link), a message
   counts [hop_count] physical hops and arrives after [distance] plus the
   processing delay; a send to an unreachable host raises [Not_found]
   and counts nothing. *)
let test_underlay_link_state () =
  let g = Graph.create 8 in
  List.iter
    (fun (a, b, latency) -> Graph.add_edge g a b ~latency)
    [ (0, 1, 10.0); (2, 3, 1.0); (3, 4, 1.0); (0, 2, 2.0); (5, 6, 1.0); (1, 5, 3.0) ];
  Graph.mark_transit g 0;
  Graph.mark_transit g 1;
  let routing = Routing.create g in
  let engine = Engine.create ~seed:1 () in
  let metrics = Metrics.create () in
  let u = Underlay.create ~engine ~routing ~metrics ~processing_delay:0.5 () in
  let arrival = ref nan in
  Underlay.send u ~src:4 ~dst:6 (fun () -> arrival := Engine.now engine);
  Engine.run engine;
  checki "physical hops = hop_count" (Routing.hop_count routing 4 6)
    (Metrics.physical_hops metrics);
  checkf "arrival = distance + processing" (Routing.distance routing 4 6 +. 0.5) !arrival;
  checkf "18 ms path + 0.5 ms" 18.5 !arrival;
  Alcotest.check_raises "unreachable" Not_found (fun () ->
      Underlay.send u ~src:4 ~dst:7 (fun () -> ()));
  checki "nothing counted for it" 1 (Metrics.messages metrics)

let test_underlay_ordering () =
  (* messages over shorter paths arrive first regardless of send order *)
  let engine, _, u, _ = line_underlay 5 in
  let order = ref [] in
  Underlay.send u ~src:0 ~dst:4 (fun () -> order := `Far :: !order);
  Underlay.send u ~src:0 ~dst:1 (fun () -> order := `Near :: !order);
  Engine.run engine;
  checkb "near first" true (!order = [ `Far; `Near ])

let test_underlay_rejects_negative_delay () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1 ~latency:1.0;
  Alcotest.check_raises "negative processing delay"
    (Invalid_argument "Underlay.create: negative processing delay") (fun () ->
      ignore
        (Underlay.create ~engine:(Engine.create ~seed:1 ())
           ~routing:(Routing.create g) ~metrics:(Metrics.create ())
           ~processing_delay:(-1.0) ()
          : Underlay.t))

(* A host the routing graph lacks (a hand-wired peer's negative host)
   is named in the error, not an index fault deep in the tables. *)
let test_underlay_rejects_foreign_host () =
  let _, _, u, _ = line_underlay 4 in
  Alcotest.check_raises "negative destination"
    (Invalid_argument "Underlay.send: host -1 is outside the underlay (hosts 0..3)")
    (fun () -> Underlay.send u ~src:0 ~dst:(-1) ignore);
  Alcotest.check_raises "source past the graph"
    (Invalid_argument "Underlay.send: host 4 is outside the underlay (hosts 0..3)")
    (fun () -> Underlay.send u ~src:4 ~dst:0 ignore)

let suite =
  [
    Alcotest.test_case "metrics: counters" `Quick test_metrics_counters;
    Alcotest.test_case "metrics: empty failure ratio" `Quick test_metrics_empty_ratio;
    Alcotest.test_case "metrics: join summaries" `Quick test_metrics_join;
    Alcotest.test_case "underlay: delivery latency" `Quick test_underlay_delivery_latency;
    Alcotest.test_case "underlay: processing delay" `Quick test_underlay_processing_delay;
    Alcotest.test_case "underlay: self send" `Quick test_underlay_self_send;
    Alcotest.test_case "underlay: message metrics" `Quick test_underlay_message_metrics;
    Alcotest.test_case "underlay: stress accounting" `Quick test_underlay_stress_accounting;
    Alcotest.test_case "underlay: latency ordering" `Quick test_underlay_ordering;
    Alcotest.test_case "underlay: link-state hops and delay" `Quick
      test_underlay_link_state;
    Alcotest.test_case "underlay: rejects a host outside the graph" `Quick
      test_underlay_rejects_foreign_host;
    Alcotest.test_case "underlay: rejects negative delay" `Quick
      test_underlay_rejects_negative_delay;
  ]
