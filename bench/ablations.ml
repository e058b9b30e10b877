(* Ablation benches for the design choices DESIGN.md calls out:

   - the degree constraint delta (tree depth vs hotspot trade-off);
   - finger tables for data forwarding (the paper's simulation walks the
     ring linearly; what does O(log N) routing buy?);
   - bypass links (Section 5.4);
   - BitTorrent-style s-networks vs flooding (Section 5.5). *)

open Experiments
module Summary = P2p_stats.Summary

let ablate_delta ctx ~scale () =
  header "Ablation — degree constraint delta at p_s = 0.9";
  row "%8s  %12s  %14s  %14s  %12s\n" "delta" "join hops" "lookup fail" "lookup ms" "max degree";
  List.iter
    (fun delta ->
      let config = { Config.paper with Config.delta } in
      let b = build ~config ~seed:11 ~ps:0.9 ~scale () in
      insert_corpus b;
      run_lookups ctx b ~count:scale.n_lookups;
      let m = H.metrics b.h in
      let max_degree =
        List.fold_left (fun acc p -> max acc (Peer.tree_degree p)) 0 (H.peers b.h)
      in
      row "%8d  %12.2f  %14.4f  %14.2f  %12d\n%!" delta
        (Summary.mean (Metrics.join_hops m))
        (Metrics.failure_ratio m)
        (Summary.mean (Metrics.lookup_latency m))
        max_degree)
    [ 2; 3; 4; 8 ]

let ablate_fingers ctx ~scale () =
  header "Ablation — finger tables for data forwarding (p_s = 0.3)";
  row "%16s  %14s  %14s  %14s\n" "routing" "lookup hops" "lookup ms" "connum/lookup";
  List.iter
    (fun (label, config) ->
      let b = build ~config ~seed:12 ~ps:0.3 ~scale () in
      insert_corpus b;
      let before = Metrics.connum (H.metrics b.h) in
      run_lookups ctx b ~count:scale.n_lookups;
      let m = H.metrics b.h in
      row "%16s  %14.2f  %14.2f  %14.2f\n%!" label
        (Summary.mean (Metrics.lookup_hops m))
        (Summary.mean (Metrics.lookup_latency m))
        (float_of_int (Metrics.connum m - before) /. float_of_int scale.n_lookups))
    [ ("ring walk", Config.paper); ("finger tables", Config.default) ]

let ablate_bypass ~scale () =
  header "Ablation — bypass links (Section 5.4), repeated cross-network lookups";
  row "%10s  %14s  %14s\n" "bypass" "lookup ms" "connum/lookup";
  List.iter
    (fun (label, bypass_enabled) ->
      let config =
        { Config.paper with Config.bypass_enabled; bypass_lifetime = 1e12 }
      in
      let b = build ~config ~seed:14 ~ps:0.8 ~scale () in
      insert_corpus b;
      (* a small set of requesters repeatedly fetching the same popular
         items: the workload bypass links thrive on *)
      let requesters = Array.sub b.peers 0 (Array.length b.peers / 20) in
      let hot = Array.sub b.items 0 50 in
      let before = Metrics.connum (H.metrics b.h) in
      let count = ref 0 in
      for round = 1 to 20 do
        ignore round;
        Array.iter
          (fun from ->
            if from.Peer.alive then begin
              let item = Rng.pick b.rng hot in
              incr count;
              H.lookup b.h ~from ~key:item.Keys.key ~on_result:(fun _ -> ()) ()
            end)
          requesters;
        H.run b.h
      done;
      let m = H.metrics b.h in
      row "%10s  %14.2f  %14.2f\n%!" label
        (Summary.mean (Metrics.lookup_latency m))
        (float_of_int (Metrics.connum m - before) /. float_of_int !count))
    [ ("off", false); ("on", true) ]

let ablate_bittorrent ctx ~scale () =
  header "Ablation — BitTorrent-style s-networks vs flooding (p_s = 0.85, TTL = 2)";
  row "%18s  %10s  %14s  %14s\n" "s-network style" "failures" "lookup ms" "connum/lookup";
  List.iter
    (fun (label, s_style) ->
      let config = { Config.paper with Config.s_style; default_ttl = 2 } in
      let b = build ~config ~seed:15 ~ps:0.85 ~scale () in
      insert_corpus b;
      let before = Metrics.connum (H.metrics b.h) in
      run_lookups ctx b ~count:scale.n_lookups;
      let m = H.metrics b.h in
      row "%18s  %10d  %14.2f  %14.2f\n%!" label (Metrics.lookups_failed m)
        (Summary.mean (Metrics.lookup_latency m))
        (float_of_int (Metrics.connum m - before) /. float_of_int scale.n_lookups))
    [ ("flooding tree", Config.Flooding_tree); ("tracker", Config.Bittorrent_tracker) ]

let ablate_cache ~scale () =
  header "Ablation — Section-7 caching under a Zipf-popular workload (p_s = 0.7)";
  row "%10s  %14s  %16s  %14s\n" "cache" "lookup ms" "max holder load" "connum/lookup";
  List.iter
    (fun (label, cache_capacity) ->
      let config =
        { Config.paper with Config.cache_capacity; cache_lifetime = 1e12 }
      in
      let b = build ~config ~seed:16 ~ps:0.7 ~scale () in
      insert_corpus b;
      let live = Array.of_list (H.peers b.h) in
      let targets =
        Keys.zipf_lookup_sequence ~rng:b.rng ~items:b.items ~count:scale.n_lookups
          ~exponent:1.2
      in
      let served : (int, int) Hashtbl.t = Hashtbl.create 256 in
      let before = Metrics.connum (H.metrics b.h) in
      Array.iter
        (fun item ->
          let from = Rng.pick b.rng live in
          H.lookup b.h ~from ~key:item.Keys.key
            ~on_result:(function
              | Data_ops.Found { holder; _ } ->
                Hashtbl.replace served holder.Peer.host
                  (1 + Option.value ~default:0 (Hashtbl.find_opt served holder.Peer.host))
              | Data_ops.Timed_out -> ())
            ())
        targets;
      H.run b.h;
      let m = H.metrics b.h in
      let max_load = Hashtbl.fold (fun _ n acc -> max n acc) served 0 in
      row "%10s  %14.2f  %16d  %14.2f\n%!" label
        (Summary.mean (Metrics.lookup_latency m))
        max_load
        (float_of_int (Metrics.connum m - before) /. float_of_int scale.n_lookups))
    [ ("off", 0); ("on (32)", 32) ]

let link_stress ~scale () =
  header "Link stress of s-network floods — +/- topology awareness (Section 5.2)";
  row "%16s  %12s  %14s  %16s\n" "assignment" "total" "mean (used)" "max per link";
  List.iter
    (fun (label, landmarks) ->
      (* rebuild with stress tracking enabled *)
      let topo =
        P2p_topology.Transit_stub.generate ~rng:(Rng.create 99) scale.topology
      in
      let routing = P2p_topology.Routing.create topo.P2p_topology.Transit_stub.graph in
      let stress = P2p_topology.Link_stress.create topo.P2p_topology.Transit_stub.graph in
      let snet_policy =
        if landmarks > 0 then begin
          let marks =
            P2p_topology.Landmark.select_landmarks ~rng:(Rng.create 98) routing
              ~count:landmarks
          in
          Some
            (World.By_cluster
               (P2p_topology.Landmark.create routing ~landmarks:marks
                  ~levels:[ 10.0; 40.0 ]))
        end
        else None
      in
      let h = H.create ~seed:17 ~routing ~config:Config.paper ?snet_policy ~stress () in
      let n = P2p_topology.Graph.node_count topo.P2p_topology.Transit_stub.graph in
      let rng = Rng.create 97 in
      for host = 0 to n - 1 do
        (* p_s = 0.9: big s-networks make the flood footprint visible *)
        let role = if host = 0 || not (Rng.bernoulli rng 0.9) then Peer.T_peer else Peer.S_peer in
        ignore (H.join h ~host ~role () : Peer.t);
        H.run h
      done;
      let items = Keys.generate ~rng ~count:(scale.n_items / 2) ~categories:4 in
      Array.iter
        (fun it ->
          H.insert h ~from:(H.random_peer h) ~key:it.Keys.key ~value:it.Keys.value ())
        items;
      H.run h;
      P2p_topology.Link_stress.clear stress;
      (* measure the flood traffic of LOCAL lookups: requester drawn from
         the s-network serving the item, so the physical spread of one
         s-network's members is exactly what the links pay for *)
      let targets = Keys.lookup_sequence ~rng ~items ~count:(scale.n_lookups / 2) in
      Array.iter
        (fun it ->
          let d_id = Keys.d_id it in
          match World.oracle_owner (H.world h) d_id with
          | None -> ()
          | Some owner ->
            let members = Array.of_list (Peer.tree_members owner) in
            let from = Rng.pick rng members in
            H.lookup h ~from ~key:it.Keys.key ~ttl:8 ~on_result:(fun _ -> ()) ())
        targets;
      H.run h;
      row "%16s  %12d  %14.2f  %16d\n%!" label
        (P2p_topology.Link_stress.total stress)
        (P2p_topology.Link_stress.mean_over_used_links stress)
        (P2p_topology.Link_stress.max_stress stress))
    [ ("random", 0); ("8 landmarks", 8) ]

(* Live churn: continuous Poisson joins/leaves/crashes while lookups run,
   with online HELLO-timer recovery (no offline repair).  The headline
   claim of the paper — the hybrid tolerates churn cheaply — measured
   directly: lookup failure stays low as the churn rate climbs. *)
let churn_live () =
  header "Live churn — lookup failure under continuous Poisson churn (online recovery)";
  row "%18s  %10s  %12s  %12s  %12s\n" "events/min" "lookups" "failures" "ratio" "final peers";
  List.iter
    (fun events_per_minute ->
      let config =
        { Config.paper with
          Config.heartbeats = true;
          hello_period = 200.0;
          hello_timeout = 700.0;
          lookup_timeout = 8_000.0;
        }
      in
      let h = H.create_star ~seed:19 ~peers:256 ~latency:2.0 ~config () in
      ignore (H.grow h ~count:150 ~s_fraction:0.7 : Peer.t array);
      let rng = Rng.create 20 in
      for i = 0 to 499 do
        H.insert h ~from:(H.random_peer h) ~key:(Printf.sprintf "live-%03d" i)
          ~value:"v" ()
      done;
      H.run_for h 5_000.0;
      let engine = H.engine h in
      let horizon = 60_000.0 in
      (* churn events, one third each kind *)
      let rate = events_per_minute /. 60_000.0 in
      let events =
        Churn.poisson ~rng ~duration:horizon ~join_rate:(rate /. 3.0)
          ~leave_rate:(rate /. 3.0) ~crash_rate:(rate /. 3.0)
      in
      List.iter
        (fun { Churn.time; kind } ->
          ignore
            (P2p_sim.Engine.schedule engine ~delay:time (fun () ->
                 match kind with
                 | Churn.Join ->
                   (try ignore (H.join h ~host:(H.fresh_host h) () : Peer.t)
                    with Invalid_argument _ -> ())
                 | Churn.Leave -> if H.peer_count h > 2 then H.leave h (H.random_peer h) ()
                 | Churn.Crash -> if H.peer_count h > 2 then H.crash h (H.random_peer h))
              : P2p_sim.Engine.handle))
        events;
      (* 600 lookups spread over the horizon *)
      let failures = ref 0 and issued = ref 0 in
      for i = 0 to 599 do
        let at = horizon *. float_of_int i /. 600.0 in
        ignore
          (P2p_sim.Engine.schedule engine ~delay:at (fun () ->
               if H.peer_count h > 0 then begin
                 incr issued;
                 H.lookup h ~from:(H.random_peer h)
                   ~key:(Printf.sprintf "live-%03d" (Rng.int rng 500))
                   ~on_result:(function
                     | Data_ops.Found _ -> ()
                     | Data_ops.Timed_out -> incr failures)
                   ()
               end)
            : P2p_sim.Engine.handle)
      done;
      H.run_for h (horizon +. 20_000.0);
      row "%18.0f  %10d  %12d  %12.4f  %12d\n%!" events_per_minute !issued !failures
        (float_of_int !failures /. float_of_int (Stdlib.max 1 !issued))
        (H.peer_count h))
    [ 0.0; 30.0; 120.0; 300.0 ]
