(* Protocol-level tests for S_network and T_network through the facade's
   world, exercising tree walks, triangles, concurrency and role
   transfer. *)

open Helpers
module S_network = Hybrid_p2p.S_network
module T_network = Hybrid_p2p.T_network
module Id_space = P2p_hashspace.Id_space

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- S-network --- *)

let test_tree_shape_delta2 () =
  let config = { default_config with Config.delta = 2 } in
  let h, _ = star_system ~config ~seed:20 ~n:40 ~ps:1.0 () in
  (* single t-peer, 39 s-peers, binary-ish tree *)
  let root = List.find Peer.is_t_peer (H.peers h) in
  ok_invariants h;
  checki "all members in tree" 40 (List.length (Peer.tree_members root));
  (* depth must be at least log2(39) ~ 5 for a degree-2 tree *)
  let max_depth =
    List.fold_left (fun acc p -> max acc (Peer.depth p)) 0 (Peer.tree_members root)
  in
  checkb (Printf.sprintf "depth %d >= 5" max_depth) true (max_depth >= 5)

let test_tree_flatter_with_bigger_delta () =
  let depth_for delta =
    let config = { default_config with Config.delta } in
    let h, _ = star_system ~config ~seed:21 ~n:80 ~ps:1.0 () in
    let root = List.find Peer.is_t_peer (H.peers h) in
    List.fold_left (fun acc p -> max acc (Peer.depth p)) 0 (Peer.tree_members root)
  in
  let d2 = depth_for 2 and d8 = depth_for 8 in
  checkb (Printf.sprintf "delta 8 tree (%d) flatter than delta 2 (%d)" d8 d2) true (d8 < d2)

let test_flood_reaches_within_ttl () =
  let h, _ = star_system ~seed:22 ~n:50 ~ps:1.0 () in
  let root = List.find Peer.is_t_peer (H.peers h) in
  let w = H.world h in
  let visited = ref [] in
  S_network.flood w ~from:root ~ttl:2 ~visit:(fun p ~depth ->
      visited := (p.Peer.host, depth) :: !visited;
      true) ();
  H.run h;
  (* every visited peer is within depth 2 and depths are correct *)
  List.iter
    (fun (host, depth) ->
      let p = Option.get (World.find_peer w ~host) in
      checki (Printf.sprintf "depth of #%d" host) (Peer.depth p) depth;
      checkb "within ttl" true (depth <= 2))
    !visited;
  (* count all peers with tree depth <= 2: exactly those are visited *)
  let expected =
    List.length (List.filter (fun p -> Peer.depth p <= 2) (Peer.tree_members root))
  in
  checki "exact coverage" expected (List.length !visited)

let test_flood_visits_once () =
  let h, _ = star_system ~seed:23 ~n:60 ~ps:1.0 () in
  let root = List.find Peer.is_t_peer (H.peers h) in
  let counts = Hashtbl.create 64 in
  S_network.flood (H.world h) ~from:root ~ttl:20 ~visit:(fun p ~depth:_ ->
      Hashtbl.replace counts p.Peer.host
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts p.Peer.host));
      true) ();
  H.run h;
  Hashtbl.iter
    (fun host n -> checki (Printf.sprintf "peer #%d visited once" host) 1 n)
    counts;
  checki "everyone visited" 60 (Hashtbl.length counts)

let test_flood_stops_at_finder () =
  let h, _ = star_system ~seed:24 ~n:60 ~ps:1.0 () in
  let root = List.find Peer.is_t_peer (H.peers h) in
  (* stop forwarding below depth 1: only root and its children visited *)
  let visited = ref 0 in
  S_network.flood (H.world h) ~from:root ~ttl:20 ~visit:(fun _ ~depth ->
      incr visited;
      depth < 1) ();
  H.run h;
  let expected =
    List.length (List.filter (fun p -> Peer.depth p <= 2) (Peer.tree_members root))
  in
  checkb "pruned flood smaller than full ttl-2 flood" true (!visited <= expected)

let test_s_leave_rejoins_children () =
  let h, _ = star_system ~seed:25 ~n:50 ~ps:1.0 () in
  let victim =
    List.find (fun p -> Peer.is_s_peer p && p.Peer.children <> []) (H.peers h)
  in
  let child_hosts = List.map (fun c -> c.Peer.host) victim.Peer.children in
  H.leave h victim ();
  H.run h;
  ok_invariants h;
  checki "population shrank" 49 (H.peer_count h);
  (* children still alive and attached somewhere *)
  List.iter
    (fun host ->
      match World.find_peer (H.world h) ~host with
      | Some c -> checkb "child re-attached" true (c.Peer.cp <> None)
      | None -> Alcotest.fail "child vanished")
    child_hosts

let test_s_leave_transfers_to_cp () =
  let h, _ = star_system ~seed:26 ~n:30 ~ps:1.0 () in
  let victim = List.find (fun p -> Peer.is_s_peer p && p.Peer.cp <> None) (H.peers h) in
  let cp = Option.get victim.Peer.cp in
  Hybrid_p2p.Data_store.insert victim.Peer.store ~key:"vk" ~value:"vv";
  let before = Hybrid_p2p.Data_store.size cp.Peer.store in
  H.leave h victim ();
  H.run h;
  checki "item moved to cp" (before + 1) (Hybrid_p2p.Data_store.size cp.Peer.store)

(* A leave issued before the s-peer's join has wired it into a tree
   waits for the wiring, then leaves once. *)
let test_s_leave_before_join_completes () =
  let h, _ = star_system ~seed:27 ~n:20 ~ps:0.5 () in
  let peer = H.join h ~host:(H.fresh_host h) ~role:Peer.S_peer () in
  let left = ref 0 in
  H.leave h peer ~on_done:(fun () -> incr left) ();
  H.run h;
  checki "on_done fired once" 1 !left;
  checkb "gone" true (World.find_peer (H.world h) ~host:peer.Peer.host = None);
  ok_invariants h

(* --- T-network --- *)

let test_ring_sorted_after_many_joins () =
  let h, _ = star_system ~seed:27 ~n:80 ~ps:0.0 () in
  ok_invariants h;
  checki "all t" 80 (H.t_peer_count h)

let test_id_conflict_resolved () =
  let h = H.create_star ~seed:28 ~peers:10 () in
  let a = H.join h ~host:0 ~p_id:1000 () in
  H.run h;
  let b = H.join h ~host:1 ~p_id:1000 ~role:Peer.T_peer () in
  H.run h;
  checkb "ids now distinct" true (a.Peer.p_id <> b.Peer.p_id);
  ok_invariants h

let test_concurrent_joins_same_segment () =
  (* Issue several joins into the same gap without settling in between:
     the join queue must serialize them. *)
  let h = H.create_star ~seed:29 ~peers:20 () in
  ignore (H.join h ~host:0 ~p_id:0 () : Peer.t);
  H.run h;
  ignore (H.join h ~host:1 ~p_id:1_000_000 ~role:Peer.T_peer () : Peer.t);
  H.run h;
  (* now five concurrent joins between 0 and 1_000_000 *)
  let joiners =
    List.init 5 (fun i ->
        H.join h ~host:(2 + i) ~p_id:((i + 1) * 100_000) ~role:Peer.T_peer ())
  in
  H.run h;
  checki "all joined" 7 (H.peer_count h);
  List.iter (fun p -> checkb "wired" true (p.Peer.succ <> None)) joiners;
  ok_invariants h

let test_concurrent_identical_ids () =
  let h = H.create_star ~seed:30 ~peers:20 () in
  ignore (H.join h ~host:0 ~p_id:0 () : Peer.t);
  H.run h;
  (* five peers race with the same requested id *)
  let joiners =
    List.init 5 (fun i -> H.join h ~host:(1 + i) ~p_id:500_000 ~role:Peer.T_peer ())
  in
  H.run h;
  let ids = List.sort_uniq compare (List.map (fun p -> p.Peer.p_id) joiners) in
  checki "all ids distinct after conflict resolution" 5 (List.length ids);
  ok_invariants h

let test_leave_triangle_empty_snetwork () =
  let h, _ = star_system ~seed:31 ~n:30 ~ps:0.0 () in
  (* all t-peers with empty s-networks: leaves run the triangle *)
  let victim = H.random_peer h in
  (* a key the victim's own segment serves, so placement stays legal *)
  let rec local_key i =
    let key = Printf.sprintf "tri-%d" i in
    if Peer.covers victim (P2p_hashspace.Key_hash.of_string key) then key
    else local_key (i + 1)
  in
  Hybrid_p2p.Data_store.insert victim.Peer.store ~key:(local_key 0) ~value:"v";
  let done_flag = ref false in
  H.leave h victim ~on_done:(fun () -> done_flag := true) ();
  H.run h;
  checkb "leave completed" true !done_flag;
  checki "population" 29 (H.peer_count h);
  checki "data moved to successor" 1
    (List.fold_left
       (fun acc p -> acc + Hybrid_p2p.Data_store.size p.Peer.store)
       0 (H.peers h));
  ok_invariants h

(* Concurrent joins and leaves in one ring segment: a star of 64 hosts,
   t-peers at p_id 0, 1e6, 2e6 and 3e6, six s-peers, then [k] t-joins
   into [1e6, 2e6) issued at once.  The first [j] joiners leave from
   their own join's [on_done], while the other joins are still in
   flight, so later joins queue at a peer that is leaving.  Returns the
   system, the joiners, how often each join's [on_done] fired and how
   often each leave's did. *)
let join_leave_run ~seed ~k ~j =
  let h = Schedules.join_leave_setup ~seed in
  let joiners, joined, left = Schedules.start_joins h ~seed ~k ~j in
  H.run h;
  (h, joiners, joined, left)

(* A join queued at a peer that is leaving re-resolves its segment from
   the live ring when the leave ends, instead of vanishing: over 500
   seeds with 2 or 3 joins (1 leaving) and with 12 joins (4 leaving), every
   join's [on_done] fires exactly once, every leave completes once,
   every joiner that stayed is registered and [Checks.final] passes. *)
let test_joins_queued_at_a_leaver () =
  List.iter
    (fun (k, j) ->
      let bad = ref 0 and broken = ref 0 in
      for seed = 1 to 500 do
        let h, joiners, joined, left = join_leave_run ~seed ~k ~j in
        let registered = H.peers h in
        let ok = ref true in
        Array.iteri
          (fun i p ->
            ok :=
              !ok && joined.(i) = 1
              && if i < j then left.(i) = 1 else List.memq p registered)
          joiners;
        if not !ok then incr bad;
        if Result.is_error (final_invariants h) then incr broken
      done;
      checki (Printf.sprintf "seeds with a lost join (k=%d, j=%d)" k j) 0 !bad;
      checki (Printf.sprintf "seeds with a broken ring (k=%d, j=%d)" k j) 0 !broken)
    [ (2, 1); (3, 1); (12, 4) ]

let test_join_load_transfer () =
  (* items whose d_id falls into a new t-peer's segment move to it *)
  let h = H.create_star ~seed:32 ~peers:20 () in
  let a = H.join h ~host:0 ~p_id:0 () in
  H.run h;
  ignore (insert_items h ~count:50 : string list);
  checki "all at the solo t-peer" 50 (Hybrid_p2p.Data_store.size a.Peer.store);
  let b = H.join h ~host:1 ~p_id:(Id_space.size / 2) ~role:Peer.T_peer () in
  H.run h;
  checkb "segment split moved items" true (Hybrid_p2p.Data_store.size b.Peer.store > 0);
  checki "nothing lost" 50 (H.total_items h);
  ok_invariants h

let test_route_to_owner_visits_ring () =
  let h, _ = star_system ~seed:33 ~n:40 ~ps:0.0 () in
  let w = H.world h in
  let from = H.random_peer h in
  let visited = ref [] in
  let arrived = ref None in
  T_network.route_to_owner w ~from ~d_id:123_456
    ~visit:(fun p ~hops -> visited := (p, hops) :: !visited)
    ~on_arrive:(fun ~owner ~hops -> arrived := Some (owner, hops))
    ();
  H.run h;
  match !arrived with
  | None -> Alcotest.fail "never arrived"
  | Some (owner, hops) ->
    let visited = List.rev !visited in
    checkb "owner covers the id" true (Peer.covers owner 123_456);
    checki "visits = hops + 1" (hops + 1) (List.length visited);
    Alcotest.(check (list int))
      "visit hop indices run 0..hops in order" (List.init (hops + 1) Fun.id)
      (List.map snd visited);
    checkb "owner visited" true (List.exists (fun (p, _) -> p == owner) visited)

let test_route_with_fingers_is_shorter () =
  let hops_with fingers =
    let config = if fingers then default_config else Config.paper in
    let h, _ = star_system ~config ~seed:34 ~n:120 ~ps:0.0 () in
    let w = H.world h in
    let total = ref 0 in
    for i = 0 to 19 do
      let from = H.random_peer h in
      let d_id = i * 50_000_000 in
      let got = ref 0 in
      T_network.route_to_owner w ~from ~d_id
        ~visit:(fun _ ~hops:_ -> ())
        ~on_arrive:(fun ~owner:_ ~hops -> got := hops)
        ();
      H.run h;
      total := !total + !got
    done;
    !total
  in
  let slow = hops_with false and fast = hops_with true in
  checkb (Printf.sprintf "fingers (%d) beat ring walk (%d)" fast slow) true (fast < slow / 2)

let suite =
  [
    Alcotest.test_case "s-net: tree shape delta=2" `Quick test_tree_shape_delta2;
    Alcotest.test_case "s-net: bigger delta flattens" `Quick test_tree_flatter_with_bigger_delta;
    Alcotest.test_case "s-net: flood coverage by ttl" `Quick test_flood_reaches_within_ttl;
    Alcotest.test_case "s-net: flood visits once" `Quick test_flood_visits_once;
    Alcotest.test_case "s-net: finder stops forwarding" `Quick test_flood_stops_at_finder;
    Alcotest.test_case "s-net: leave rejoins children" `Quick test_s_leave_rejoins_children;
    Alcotest.test_case "s-net: leave transfers load to cp" `Quick test_s_leave_transfers_to_cp;
    Alcotest.test_case "s-net: leave before join completes" `Quick
      test_s_leave_before_join_completes;
    Alcotest.test_case "t-net: ring after many joins" `Quick test_ring_sorted_after_many_joins;
    Alcotest.test_case "t-net: id conflict resolved" `Quick test_id_conflict_resolved;
    Alcotest.test_case "t-net: concurrent joins serialize" `Quick
      test_concurrent_joins_same_segment;
    Alcotest.test_case "t-net: concurrent identical ids" `Quick test_concurrent_identical_ids;
    Alcotest.test_case "t-net: leave triangle" `Quick test_leave_triangle_empty_snetwork;
    Alcotest.test_case "t-net: joins queued at a leaver" `Quick test_joins_queued_at_a_leaver;
    Alcotest.test_case "t-net: join load transfer" `Quick test_join_load_transfer;
    Alcotest.test_case "t-net: route_to_owner" `Quick test_route_to_owner_visits_ring;
    Alcotest.test_case "t-net: fingers shorten routes" `Quick test_route_with_fingers_is_shorter;
  ]
