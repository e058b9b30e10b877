(* Integration tests for the hybrid system facade: membership, data
   operations, churn, failure recovery, placement schemes, enhancements. *)

open Helpers
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config
module Data_ops = Hybrid_p2p.Data_ops
module Metrics = P2p_net.Metrics
module Summary = P2p_stats.Summary
module Rng = P2p_sim.Rng
module Transit_stub = P2p_topology.Transit_stub
module Routing = P2p_topology.Routing
module Graph = P2p_topology.Graph
module Pipeline = P2p_scenario.Pipeline
module Keys = P2p_workload.Keys

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_bootstrap_single () =
  let h = H.create_star ~seed:1 ~peers:10 () in
  let p = H.join h ~host:0 ~role:Peer.S_peer () in
  (* first peer always becomes a t-peer *)
  H.run h;
  checkb "forced t-peer" true (Peer.is_t_peer p);
  checki "one peer" 1 (H.peer_count h);
  ok_invariants h

let test_grow_ratio () =
  let h, _ = star_system ~n:200 ~ps:0.7 () in
  checki "population" 200 (H.peer_count h);
  let t = H.t_peer_count h in
  (* 30% expected t-peers; allow generous slack for the coin flips *)
  checkb (Printf.sprintf "t-peers %d near 60" t) true (t > 35 && t < 90);
  ok_invariants h

let test_grow_extremes () =
  let h0, _ = star_system ~seed:5 ~n:60 ~ps:0.0 () in
  checki "ps=0: all t-peers" 60 (H.t_peer_count h0);
  ok_invariants h0;
  let h1, _ = star_system ~seed:6 ~n:60 ~ps:1.0 () in
  checki "ps=1: single t-peer" 1 (H.t_peer_count h1);
  checki "rest s-peers" 59 (H.s_peer_count h1);
  ok_invariants h1

let test_join_occupied_host () =
  let h = H.create_star ~seed:2 ~peers:10 () in
  ignore (H.join h ~host:3 () : Peer.t);
  H.run h;
  Alcotest.check_raises "occupied" (Invalid_argument "Hybrid.join: host already occupied")
    (fun () -> ignore (H.join h ~host:3 () : Peer.t))

let test_join_bad_host () =
  let h = H.create_star ~seed:2 ~peers:10 () in
  Alcotest.check_raises "outside topology"
    (Invalid_argument "Hybrid.join: host outside the physical topology") (fun () ->
      ignore (H.join h ~host:1000 () : Peer.t))

let test_join_latency_recorded () =
  let h, _ = star_system ~n:50 ~ps:0.5 () in
  let m = H.metrics h in
  checki "all joins recorded" 50 (Summary.count (Metrics.join_latency m));
  checkb "join hops positive on average" true (Summary.mean (Metrics.join_hops m) > 0.0)

let test_insert_lookup_roundtrip () =
  let h, _ = star_system ~n:120 ~ps:0.6 () in
  let keys = insert_items h ~count:300 in
  checki "all stored" 300 (H.total_items h);
  ok_invariants h;
  List.iter
    (fun key ->
      let r = lookup_sync h ~from:(H.random_peer h) ~key () in
      checkb ("found " ^ key) true (found r))
    keys

let test_lookup_absent_times_out () =
  let h, _ = star_system ~n:60 ~ps:0.5 () in
  let r = lookup_sync h ~from:(H.random_peer h) ~key:"never-inserted" () in
  checkb "timed out" false (found r);
  checki "failure recorded" 1 (Metrics.lookups_failed (H.metrics h))

let test_lookup_own_item_is_fast () =
  let h, _ = star_system ~n:80 ~ps:0.5 () in
  (* find a peer and a key its own s-network serves *)
  let p = H.random_peer h in
  let keys = insert_items h ~count:50 in
  let local_key =
    List.find_opt
      (fun key ->
        match p.Peer.t_home with
        | Some home -> Peer.covers home (P2p_hashspace.Key_hash.of_string key)
        | None -> false)
      keys
  in
  match local_key with
  | None -> () (* unlucky segment; nothing to assert *)
  | Some key ->
    let r = lookup_sync h ~from:p ~key () in
    (match r with
     | Data_ops.Found { hops; _ } ->
       checkb (Printf.sprintf "local lookup cheap (%d hops)" hops) true (hops <= 10)
     | Data_ops.Timed_out -> Alcotest.fail "local lookup failed")

let test_placement_scheme_a_concentrates () =
  let config = { default_config with Config.placement = Config.Store_at_tpeer } in
  let h, _ = star_system ~config ~seed:7 ~n:150 ~ps:0.8 () in
  ignore (insert_items h ~count:600 : string list);
  (* under scheme A every cross-network item lands on a t-peer *)
  let s_items =
    List.fold_left
      (fun acc p ->
        if Peer.is_s_peer p then acc + Hybrid_p2p.Data_store.size p.Peer.store else acc)
      0 (H.peers h)
  in
  let t_items = H.total_items h - s_items in
  checkb
    (Printf.sprintf "t-peers hold the bulk (%d t vs %d s)" t_items s_items)
    true
    (t_items > 2 * s_items)

let test_placement_scheme_b_spreads () =
  let config = { default_config with Config.placement = Config.Spread_to_neighbors } in
  let h, _ = star_system ~config ~seed:7 ~n:150 ~ps:0.8 () in
  ignore (insert_items h ~count:600 : string list);
  let dist = H.data_distribution h in
  let zero_fraction = P2p_stats.Pdf.fraction_zero dist in
  checkb
    (Printf.sprintf "spread leaves few empty peers (%.2f empty)" zero_fraction)
    true (zero_fraction < 0.6);
  ok_invariants h

let test_graceful_leave_keeps_data () =
  let h, _ = star_system ~seed:8 ~n:100 ~ps:0.6 () in
  let keys = insert_items h ~count:200 in
  let total_before = H.total_items h in
  (* make 20 random peers leave gracefully *)
  for _ = 1 to 20 do
    H.leave h (H.random_peer h) ();
    H.run h
  done;
  checki "population shrank" 80 (H.peer_count h);
  checki "no data lost" total_before (H.total_items h);
  ok_invariants h;
  (* everything still findable *)
  List.iter
    (fun key ->
      let r = lookup_sync h ~from:(H.random_peer h) ~key () in
      checkb ("still found " ^ key) true (found r))
    keys

let test_t_peer_leave_promotes () =
  let h, _ = star_system ~seed:9 ~n:60 ~ps:0.8 () in
  let tpeer =
    List.find (fun p -> Peer.is_t_peer p && p.Peer.children <> []) (H.peers h)
  in
  let old_pid = tpeer.Peer.p_id in
  let t_count = H.t_peer_count h in
  H.leave h tpeer ();
  H.run h;
  checki "t-peer population unchanged" t_count (H.t_peer_count h);
  checkb "replacement carries the p_id" true
    (List.exists
       (fun p -> Peer.is_t_peer p && p.Peer.p_id = old_pid)
       (H.peers h));
  ok_invariants h

let test_last_t_peer_leave () =
  let h = H.create_star ~seed:10 ~peers:10 () in
  let p = H.join h ~host:0 () in
  H.run h;
  H.leave h p ();
  H.run h;
  checki "empty system" 0 (H.peer_count h)

let test_crash_repair_storm () =
  let h, _ = star_system ~seed:11 ~n:150 ~ps:0.7 () in
  ignore (insert_items h ~count:300 : string list);
  let before = H.total_items h in
  let victims =
    List.filteri (fun i _ -> i mod 5 = 0) (H.peers h)
  in
  List.iter (fun v -> H.crash h v) victims;
  H.repair h;
  H.run h;
  checki "population" 120 (H.peer_count h);
  checkb "some data lost" true (H.total_items h < before);
  ok_invariants h

let test_crash_all_t_peers () =
  let h, _ = star_system ~seed:12 ~n:60 ~ps:0.7 () in
  let tpeers = List.filter Peer.is_t_peer (H.peers h) in
  List.iter (fun v -> H.crash h v) tpeers;
  H.repair h;
  H.run h;
  checkb "replacements promoted" true (H.t_peer_count h > 0);
  ok_invariants h

let test_surviving_lookups_after_crash () =
  let h, _ = star_system ~seed:13 ~n:120 ~ps:0.6 () in
  let keys = insert_items h ~count:200 in
  let victims = List.filteri (fun i _ -> i mod 10 = 0) (H.peers h) in
  List.iter (fun v -> H.crash h v) victims;
  H.repair h;
  H.run h;
  (* count how many keys survived in stores *)
  let surviving = H.total_items h in
  let found_count = ref 0 in
  List.iter
    (fun key ->
      let r = lookup_sync h ~from:(H.random_peer h) ~key () in
      if found r then incr found_count)
    keys;
  checkb
    (Printf.sprintf "findable (%d) matches surviving (%d)" !found_count surviving)
    true
    (abs (!found_count - surviving) <= surviving / 10)

let test_heartbeat_detects_spier_crash () =
  let config =
    { default_config with Config.heartbeats = true; hello_period = 10.0;
      hello_timeout = 35.0 }
  in
  let h, _ = star_system ~config ~seed:14 ~n:40 ~ps:0.8 () in
  ok_invariants h;
  (* crash an s-peer that has children: the subtree must rejoin online *)
  match
    List.find_opt (fun p -> Peer.is_s_peer p && p.Peer.children <> []) (H.peers h)
  with
  | None -> () (* no such shape this seed; covered elsewhere *)
  | Some victim ->
    H.crash h victim;
    H.run_for h 500.0;
    ok_invariants h;
    checki "population shrank by one" 39 (H.peer_count h)

let test_heartbeat_detects_tpeer_crash () =
  let config =
    { default_config with Config.heartbeats = true; hello_period = 10.0;
      hello_timeout = 35.0 }
  in
  let h, _ = star_system ~config ~seed:15 ~n:40 ~ps:0.7 () in
  let victim = List.find (fun p -> Peer.is_t_peer p && p.Peer.children <> []) (H.peers h) in
  let old_pid = victim.Peer.p_id in
  H.crash h victim;
  H.run_for h 1000.0;
  checkb "an s-peer took over the ring position" true
    (List.exists (fun p -> Peer.is_t_peer p && p.Peer.p_id = old_pid) (H.peers h));
  ok_invariants h

let test_bittorrent_mode () =
  let config = { default_config with Config.s_style = Config.Bittorrent_tracker } in
  let h, _ = star_system ~config ~seed:16 ~n:100 ~ps:0.7 () in
  let keys = insert_items h ~count:200 in
  List.iter
    (fun key ->
      let r = lookup_sync h ~from:(H.random_peer h) ~key () in
      checkb ("tracker found " ^ key) true (found r))
    keys;
  ok_invariants h

let test_bypass_links_accelerate () =
  let config =
    { default_config with Config.bypass_enabled = true; bypass_lifetime = 1e9 }
  in
  let h, _ = star_system ~config ~seed:17 ~n:100 ~ps:0.8 () in
  ignore (insert_items h ~count:100 : string list);
  (* repeated cross-network lookups from the same peer install bypass
     links; eventually some exist *)
  let p = H.random_peer h in
  for _ = 1 to 30 do
    let key = Printf.sprintf "item-%05d" (Rng.int (P2p_sim.Engine.rng (H.engine h)) 100) in
    ignore (lookup_sync h ~from:p ~key () : Data_ops.lookup_outcome)
  done;
  let has_bypass =
    List.exists (fun q -> q.Peer.bypass <> []) (H.peers h)
  in
  checkb "bypass links installed" true has_bypass;
  ok_invariants h

let test_interest_policy_groups () =
  let h =
    H.create_star ~seed:18 ~peers:300 ~snet_policy:Hybrid_p2p.World.By_interest ()
  in
  (* seed t-peers; the two category homes are pinned at the categories'
     routing IDs so each category gets its own segment *)
  for host = 0 to 1 do
    ignore
      (H.join h ~host ~role:Peer.T_peer ~p_id:(Hybrid_p2p.Interest.route_id host) ()
        : Peer.t);
    H.run h
  done;
  for host = 2 to 9 do
    ignore (H.join h ~host ~role:Peer.T_peer () : Peer.t);
    H.run h
  done;
  (* s-peers with two interest categories *)
  let joined =
    List.init 40 (fun i ->
        let p =
          H.join h ~host:(10 + i) ~role:Peer.S_peer ~interest:(i mod 2) ()
        in
        H.run h;
        p)
  in
  (* peers sharing an interest share a t_home *)
  let home_of p = (Option.get p.Peer.t_home).Peer.host in
  let homes0 =
    List.sort_uniq compare
      (List.filteri (fun i _ -> i mod 2 = 0) joined |> List.map home_of)
  in
  let homes1 =
    List.sort_uniq compare
      (List.filteri (fun i _ -> i mod 2 = 1) joined |> List.map home_of)
  in
  checki "interest 0 in one s-network" 1 (List.length homes0);
  checki "interest 1 in one s-network" 1 (List.length homes1);
  checkb "different interests, different s-networks" true (homes0 <> homes1);
  ok_invariants h

let test_delta_respected_under_load () =
  let config = { default_config with Config.delta = 2 } in
  let h, _ = star_system ~config ~seed:19 ~n:100 ~ps:0.9 () in
  List.iter
    (fun p ->
      checkb
        (Printf.sprintf "peer #%d degree <= 2" p.Peer.host)
        true
        (Peer.tree_degree p <= 2))
    (H.peers h);
  ok_invariants h

let test_determinism () =
  let run () =
    let h, _ = star_system ~seed:77 ~n:80 ~ps:0.6 () in
    ignore (insert_items h ~count:100 : string list);
    (Metrics.messages (H.metrics h), H.total_items h, H.t_peer_count h)
  in
  let a = run () and b = run () in
  checkb "identical runs" true (a = b)

(* The hierarchical router against the flat one: one seeded workload
   over the transit-stub graph p2psim builds for 200 peers, routed once
   with its transit marks (backbone block, gateway legs, per-domain
   trees) and once on an unmarked copy (the whole graph one stub domain,
   answered by its trees and solves alone), must behave the same.  The
   two add a path's latencies in different orders, so latencies agree to
   a tolerance; every count is exact. *)
let test_hierarchical_run_matches_flat () =
  let params =
    {
      Transit_stub.default_params with
      Transit_stub.transit_domains = 3;
      transit_nodes = 3;
      stub_domains_per_node = 4;
      stub_nodes = 6;
    }
  in
  let run graph_of =
    let topo = Transit_stub.generate ~rng:(Rng.create 31) params in
    let h = H.create ~seed:30 ~routing:(Routing.create (graph_of topo.Transit_stub.graph)) () in
    let rng = Rng.create 32 in
    for host = 0 to 199 do
      let role = if host = 0 || not (Rng.bernoulli rng 0.7) then Peer.T_peer else Peer.S_peer in
      ignore (H.join h ~host ~role () : Peer.t);
      H.run h
    done;
    let keys = Array.of_list (insert_items h ~count:300) in
    let latencies = Array.make (Array.length keys) (-1.0) in
    Array.iteri
      (fun i key ->
        H.lookup h ~from:(H.random_peer h) ~key
          ~on_result:(function
            | Data_ops.Found { latency; _ } -> latencies.(i) <- latency
            | Data_ops.Timed_out -> ())
          ())
      keys;
    H.run h;
    (H.metrics h, H.total_items h, latencies)
  in
  let unmarked g =
    let copy = Graph.create (Graph.node_count g) in
    List.iter (fun e -> Graph.add_edge copy e.Graph.u e.Graph.v ~latency:e.Graph.latency)
      (Graph.edges g);
    (* connected and unmarked: one stub domain *)
    checki "flat domains" 1
      (Array.length (Routing.decomposition (Routing.create copy)).Routing.members);
    copy
  in
  let m, items, lat = run Fun.id in
  let m', items', lat' = run unmarked in
  List.iter
    (fun (name, f) -> checki name (f m) (f m'))
    [
      ("messages", Metrics.messages);
      ("physical hops", Metrics.physical_hops);
      ("lookups ok", Metrics.lookups_succeeded);
      ("lookups failed", Metrics.lookups_failed);
      ("connum", Metrics.connum);
    ];
  checki "stored items" items items';
  Array.iter2 (Alcotest.check (Alcotest.float 1e-6) "lookup latency") lat lat'

(* The graphs the library builds carry their tiers: [Transit_stub.generate]
   marks exactly its [Transit _] nodes, and [create_star] only its hub. *)
let test_graphs_mark_transit () =
  let topo = Transit_stub.generate ~rng:(Rng.create 33) Transit_stub.default_params in
  Array.iteri
    (fun u cls ->
      let transit = match cls with Transit_stub.Transit _ -> true | Transit_stub.Stub _ -> false in
      checkb (Printf.sprintf "node %d" u) transit (Graph.is_transit topo.Transit_stub.graph u))
    topo.Transit_stub.classes;
  let peers = 12 in
  let h = H.create_star ~seed:34 ~peers () in
  let g = Routing.graph (P2p_net.Underlay.routing (H.world h).Hybrid_p2p.World.underlay) in
  checki "star nodes" (peers + 1) (Graph.node_count g);
  for u = 0 to peers do
    checkb (Printf.sprintf "star node %d" u) (u = peers) (Graph.is_transit g u)
  done

(* The hybrid at p_s 0 is a Chord ring: with fingers routing data, a
   lookup on compare's workload (300 peers, 2,000 items and lookups)
   takes O(log N) ring hops plus the reply. *)
let test_pure_ring_logarithmic () =
  let n = 300 and seed = 42 in
  let h, _ = Pipeline.build ~ps:0.0 ~seed ~n ~config:default_config () in
  let p = Pipeline.attach h in
  let rng = Rng.create seed in
  let corpus = Pipeline.insert p ~rng ~count:2000 in
  Pipeline.lookup p (Keys.lookup_sequence ~rng ~items:corpus ~count:2000);
  let m = H.metrics h in
  let mean = Summary.mean (Metrics.lookup_hops m) in
  let ceiling = Float.ceil (Float.log2 (float_of_int n)) +. 2.0 in
  Alcotest.(check (float 0.0)) "no lookup fails" 0.0 (Metrics.failure_ratio m);
  checkb (Printf.sprintf "mean hops %.2f in [2, %.0f]" mean ceiling) true
    (mean >= 2.0 && mean <= ceiling)

let suite =
  [
    Alcotest.test_case "bootstrap forces first t-peer" `Quick test_bootstrap_single;
    Alcotest.test_case "grow respects ratio" `Quick test_grow_ratio;
    Alcotest.test_case "grow at ps extremes" `Quick test_grow_extremes;
    Alcotest.test_case "join rejects occupied host" `Quick test_join_occupied_host;
    Alcotest.test_case "join rejects bad host" `Quick test_join_bad_host;
    Alcotest.test_case "join latency recorded" `Quick test_join_latency_recorded;
    Alcotest.test_case "insert/lookup roundtrip" `Quick test_insert_lookup_roundtrip;
    Alcotest.test_case "absent key times out" `Quick test_lookup_absent_times_out;
    Alcotest.test_case "local lookups are cheap" `Quick test_lookup_own_item_is_fast;
    Alcotest.test_case "placement A concentrates on t-peers" `Quick
      test_placement_scheme_a_concentrates;
    Alcotest.test_case "placement B spreads" `Quick test_placement_scheme_b_spreads;
    Alcotest.test_case "graceful leave keeps data" `Quick test_graceful_leave_keeps_data;
    Alcotest.test_case "t-peer leave promotes s-peer" `Quick test_t_peer_leave_promotes;
    Alcotest.test_case "last t-peer can leave" `Quick test_last_t_peer_leave;
    Alcotest.test_case "crash storm + repair" `Quick test_crash_repair_storm;
    Alcotest.test_case "all t-peers crash" `Quick test_crash_all_t_peers;
    Alcotest.test_case "lookups after crash match survivors" `Quick
      test_surviving_lookups_after_crash;
    Alcotest.test_case "heartbeats: s-peer crash recovery" `Quick
      test_heartbeat_detects_spier_crash;
    Alcotest.test_case "heartbeats: t-peer crash recovery" `Quick
      test_heartbeat_detects_tpeer_crash;
    Alcotest.test_case "BitTorrent-style s-networks" `Quick test_bittorrent_mode;
    Alcotest.test_case "bypass links install" `Quick test_bypass_links_accelerate;
    Alcotest.test_case "interest-based s-networks" `Quick test_interest_policy_groups;
    Alcotest.test_case "delta respected" `Quick test_delta_respected_under_load;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "link-state run: hierarchical = flat" `Quick
      test_hierarchical_run_matches_flat;
    Alcotest.test_case "generated and star graphs mark their transit nodes" `Quick
      test_graphs_mark_transit;
    Alcotest.test_case "pure ring: finger routing stays logarithmic" `Quick
      test_pure_ring_logarithmic;
  ]
