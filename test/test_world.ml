(* Unit tests for Hybrid_p2p.World: the membership directory, the
   server's assignment policies, the ring oracle, finger maintenance and
   ring stabilization. *)

open Helpers
module Id_space = P2p_hashspace.Id_space
module Landmark = P2p_topology.Landmark
module Graph = P2p_topology.Graph
module Routing = P2p_topology.Routing
module Rng = P2p_sim.Rng
module Interest = Hybrid_p2p.Interest

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* a hand-built peer whose stores share [w]'s interner, as registering
   requires *)
let make_peer w = Peer.make ~log:(World.change_log w) ~interner:(World.interner w)

(* a quiesced world with an explicit ring of t-peers at given p_ids *)
let world_with_ring ?(config = default_config) ids =
  let h = H.create_star ~seed:90 ~peers:64 ~config () in
  let peers =
    List.mapi
      (fun host p_id ->
        let p = H.join h ~host ~role:Peer.T_peer ~p_id () in
        H.run h;
        p)
      ids
  in
  (h, peers)

let test_membership_directory () =
  let h, peers = world_with_ring [ 100; 200; 300 ] in
  let w = H.world h in
  checki "count" 3 (World.peer_count w);
  List.iter
    (fun p ->
      match World.find_peer w ~host:p.Peer.host with
      | Some q -> checkb "found self" true (q == p)
      | None -> Alcotest.fail "missing peer")
    peers;
  checkb "absent host" true (World.find_peer w ~host:63 = None);
  World.unregister w (List.hd peers);
  checki "unregistered" 2 (World.peer_count w)

(* Registering checks the peer's stores against the world interner: a
   peer built on another interner is refused and leaves the directory as
   it was. *)
let test_register_rejects_foreign_interner () =
  let h, _ = world_with_ring [ 100; 200 ] in
  let w = H.world h in
  let foreign =
    Peer.make ~log:(World.change_log w) ~interner:(Hybrid_p2p.Intern.create ()) ~host:40 ~p_id:0 ~role:Peer.S_peer
      ~link_capacity:1.0 ()
  in
  Alcotest.check_raises "foreign interner refused"
    (Invalid_argument "World.register: the peer's stores use another interner")
    (fun () -> World.register w foreign);
  checki "directory unchanged" 2 (World.peer_count w);
  checkb "host still free" true (World.find_peer w ~host:40 = None);
  World.register w (make_peer w ~host:40 ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 ());
  checki "a peer on the world interner registers" 3 (World.peer_count w)

let test_t_peers_sorted () =
  let h, _ = world_with_ring [ 500; 100; 300 ] in
  let arr = World.t_peers (H.world h) in
  Alcotest.check (Alcotest.list Alcotest.int) "sorted by p_id" [ 100; 300; 500 ]
    (Array.to_list (Array.map (fun p -> p.Peer.p_id) arr))

let test_t_peers_cache_matches_oracle () =
  (* The sorted t-peer array is cached behind a dirty bit; after every
     kind of membership churn it must equal a from-scratch recompute. *)
  let h, _ = star_system ~n:48 ~ps:0.6 () in
  let w = H.world h in
  let recompute () =
    World.live_peers w
    |> List.filter Peer.is_t_peer
    |> List.map (fun p -> p.Peer.p_id)
    |> List.sort compare
  in
  let cached () =
    World.t_peers w |> Array.to_list |> List.map (fun p -> p.Peer.p_id)
  in
  let agree label =
    Alcotest.check (Alcotest.list Alcotest.int) label (recompute ()) (cached ())
  in
  agree "after build";
  let victim =
    List.find Peer.is_t_peer (World.live_peers w)
  in
  H.crash h victim;
  H.run h;
  agree "after t-peer crash";
  ignore (H.grow h ~count:6 ~s_fraction:0.0 : Peer.t array);
  agree "after t-joins";
  (match List.find_opt (fun p -> Peer.is_t_peer p && p.Peer.alive) (World.live_peers w) with
   | Some p ->
     H.leave h p ();
     H.run h;
     agree "after graceful t-leave"
   | None -> Alcotest.fail "no live t-peer left")

let test_oracle_owner () =
  let h, peers = world_with_ring [ 100; 200; 300 ] in
  let w = H.world h in
  let owner id = (Option.get (World.oracle_owner w id)).Peer.p_id in
  checki "interior" 200 (owner 150);
  checki "exact" 200 (owner 200);
  checki "wraps" 100 (owner 301);
  checki "before first" 100 (owner 50);
  List.iter (fun p -> H.crash h p) peers;
  checkb "empty ring" true (World.oracle_owner w 1 = None)

let test_smallest_s_network_policy () =
  let h, tpeers = world_with_ring [ 100; 200 ] in
  let w = H.world h in
  let t0 = List.nth tpeers 0 and t1 = List.nth tpeers 1 in
  (* grow t0's s-network by hand through the size table *)
  World.set_snet_size w t0 5;
  World.set_snet_size w t1 1;
  let joiner = make_peer w ~host:60 ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 () in
  (match World.choose_s_network w ~joiner with
   | Some t -> checkb "smallest wins" true (t == t1)
   | None -> Alcotest.fail "no assignment");
  World.set_snet_size w t1 9;
  (match World.choose_s_network w ~joiner with
   | Some t -> checkb "flips when sizes flip" true (t == t0)
   | None -> Alcotest.fail "no assignment")

let test_by_interest_policy_uses_route_id () =
  let h = H.create_star ~seed:91 ~peers:64 ~snet_policy:Hybrid_p2p.World.By_interest () in
  let home0 = H.join h ~host:0 ~role:Peer.T_peer ~p_id:(Interest.route_id 0) () in
  H.run h;
  let home1 = H.join h ~host:1 ~role:Peer.T_peer ~p_id:(Interest.route_id 1) () in
  H.run h;
  let w = H.world h in
  let joiner interest =
    make_peer w ~host:50 ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 ~interest ()
  in
  (match World.choose_s_network w ~joiner:(joiner 0) with
   | Some t -> checkb "category 0 -> its home" true (t == home0)
   | None -> Alcotest.fail "no assignment");
  (match World.choose_s_network w ~joiner:(joiner 1) with
   | Some t -> checkb "category 1 -> its home" true (t == home1)
   | None -> Alcotest.fail "no assignment");
  (* a peer without interest falls back to load balancing *)
  let no_interest = make_peer w ~host:51 ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 () in
  checkb "no-interest handled" true (World.choose_s_network w ~joiner:no_interest <> None)

let test_by_cluster_prefers_local_t_peer () =
  (* line graph: two halves; landmarks at the ends *)
  let g = Graph.create 10 in
  for i = 0 to 8 do
    Graph.add_edge g i (i + 1) ~latency:1.0
  done;
  let routing = Routing.create g in
  let landmark = Landmark.create routing ~landmarks:[ 0; 9 ] ~levels:[] in
  let h =
    Hybrid_p2p.Hybrid.create ~seed:92 ~routing
      ~snet_policy:(Hybrid_p2p.World.By_cluster landmark) ()
  in
  (* one t-peer per half *)
  let t_left = H.join h ~host:1 ~role:Peer.T_peer () in
  H.run h;
  let t_right = H.join h ~host:8 ~role:Peer.T_peer () in
  H.run h;
  let w = H.world h in
  let joiner host = make_peer w ~host ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 () in
  (match World.choose_s_network w ~joiner:(joiner 2) with
   | Some t -> checkb "left joiner -> left t-peer" true (t == t_left)
   | None -> Alcotest.fail "no assignment");
  match World.choose_s_network w ~joiner:(joiner 7) with
  | Some t -> checkb "right joiner -> right t-peer" true (t == t_right)
  | None -> Alcotest.fail "no assignment"

let test_fresh_p_id_in_range () =
  let h, _ = world_with_ring [ 100 ] in
  let w = H.world h in
  for _ = 1 to 200 do
    checkb "valid" true (Id_space.valid (World.fresh_p_id w))
  done

let test_refresh_and_substitute_fingers () =
  let h, peers = world_with_ring [ 100; 200; 300; 400 ] in
  let w = H.world h in
  World.ensure_fingers w;
  let p100 = List.nth peers 0 and p200 = List.nth peers 1 in
  (* finger 0 of 100 targets 101 -> owner is 200 *)
  (match (World.fingers w p100).(0) with
   | Some f -> checki "finger 0" 200 f.Peer.p_id
   | None -> Alcotest.fail "no finger");
  (* substitution: replace 200 by a stand-in everywhere *)
  let stand_in = make_peer w ~host:60 ~p_id:200 ~role:Peer.T_peer ~link_capacity:1.0 () in
  World.substitute_in_fingers w ~old_peer:p200 ~replacement:stand_in;
  (match (World.fingers w p100).(0) with
   | Some f -> checkb "substituted" true (f == stand_in)
   | None -> Alcotest.fail "no finger")

(* The refresh-point rule: a ring change alone leaves every table as the
   last refresh point made it, and a peer that leaves the ring keeps the
   fingers of the last refresh point it was part of. *)
let test_fingers_follow_refresh_points () =
  let h, peers = world_with_ring [ 100; 200; 300; 400 ] in
  let w = H.world h in
  let p300 = List.nth peers 2 in
  let finger0 p =
    match (World.fingers w p).(0) with
    | Some f -> f.Peer.p_id
    | None -> Alcotest.fail "no finger"
  in
  let t_peer ~host ~p_id =
    let p = make_peer w ~host ~p_id ~role:Peer.T_peer ~link_capacity:1.0 () in
    World.register w p;
    p
  in
  (* 400 joined after the last refresh point: 300's table still has the
     ring {100, 200, 300}, where 301's owner wraps to 100 *)
  let p350 = t_peer ~host:50 ~p_id:350 in
  checki "a ring change is not a refresh point" 100 (finger0 p300);
  let before = World.finger_refreshes w in
  World.ensure_fingers w;
  checki "a refresh point recomputes no table" before (World.finger_refreshes w);
  checki "the first read after it does" 350 (finger0 p300);
  checki "one table recomputed" (before + 1) (World.finger_refreshes w);
  (* 350 leaves unread; 370 joins; then the next refresh point *)
  Peer.set_alive p350 false;
  World.unregister w p350;
  ignore (t_peer ~host:51 ~p_id:370 : Peer.t);
  World.ensure_fingers w;
  checki "a departed peer keeps its last refresh point's ring" 400 (finger0 p350);
  checki "members read the new ring" 370 (finger0 p300)

(* The server's size table answers like a first-minimum scan of the ring
   in p_id order, through joins, crashes and leaves. *)
let test_smallest_s_network_matches_scan () =
  let h, _ = star_system ~seed:13 ~n:120 ~ps:0.6 () in
  let w = H.world h in
  let agree label =
    let arr = World.t_peers w in
    let best = ref arr.(0) in
    Array.iter (fun p -> if World.snet_size w p < World.snet_size w !best then best := p) arr;
    let joiner = make_peer w ~host:(-1) ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 () in
    match World.choose_s_network w ~joiner with
    | Some p -> checkb label true (p == !best)
    | None -> Alcotest.fail "no assignment"
  in
  agree "after build";
  List.iteri
    (fun i p -> if i mod 9 = 2 then H.crash h p)
    (World.live_peers w);
  H.repair h;
  H.run h;
  agree "after crashes and repair";
  Array.iter (fun p -> World.set_snet_size w p 3) (World.t_peers w);
  agree "after a tie on every s-network";
  (match List.find_opt Peer.is_t_peer (World.live_peers w) with
   | Some p ->
     H.leave h p ();
     H.run h
   | None -> Alcotest.fail "no t-peer");
  agree "after a graceful t-leave";
  ignore (H.grow h ~count:10 ~s_fraction:0.5 : Peer.t array);
  agree "after more joins"

(* Property: after any mix of t-peer registrations (p_ids from a small
   range, so they collide), unregistrations, hosts taken over by another
   peer and size-table writes, the incrementally kept ring is the slots'
   live t-peers sorted by (p_id, host), and the smallest-first server
   picks the first smallest s-network in that order.  Some steps skip
   the check, so several changes merge at once. *)
let prop_ring_matches_scan =
  QCheck.Test.make ~name:"ring and size table = a scan of the slots" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 60) (triple (int_bound 3) (int_bound 11) (int_bound 7)))
    (fun ops ->
      let h = H.create_star ~seed:3 ~peers:16 () in
      let w = H.world h in
      let agrees () =
        let expected =
          World.live_peers w
          |> List.filter (fun p -> Peer.is_t_peer p && p.Peer.alive)
          |> List.sort (fun a b -> compare (a.Peer.p_id, a.Peer.host) (b.Peer.p_id, b.Peer.host))
        in
        let ring = World.t_peers w in
        let first_smallest =
          List.fold_left
            (fun best p ->
              match best with
              | Some b when World.snet_size w b <= World.snet_size w p -> best
              | Some _ | None -> Some p)
            None expected
        in
        List.equal ( == ) expected (Array.to_list ring)
        && Array.for_all2 (fun p id -> p.Peer.p_id = id) ring w.World.t_ids
        && Option.equal ( == ) first_smallest
             (World.choose_s_network w
                ~joiner:(make_peer w ~host:999 ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 ()))
      in
      List.for_all
        (fun (kind, host, x) ->
          let host = 100 + host in
          let make role = make_peer w ~host ~p_id:x ~role ~link_capacity:1.0 () in
          (match (kind, World.find_peer w ~host) with
           | 0, _ -> World.register w (make Peer.T_peer)
           | 1, Some p ->
             Peer.set_alive p false;
             World.unregister w p
           | 2, _ -> World.register w (make Peer.S_peer)
           | 3, Some p when Peer.is_t_peer p -> World.set_snet_size w p x
           | _ -> ());
          x land 1 = 1 || agrees ())
        ops
      && agrees ())

(* Property: the size table's heap answers like a scan.  Ring joins and
   leaves on hosts spread past several doublings of the host arrays,
   sizes set outright and moved by deltas (ties are frequent: sizes stay
   small), and after every step the smallest-first server picks what a
   first-minimum scan of the live ring in (p_id, host) order picks. *)
let prop_size_heap_matches_scan =
  QCheck.Test.make ~name:"size heap: smallest s-network = a first-minimum scan" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 120) (triple (int_bound 4) (int_bound 199) (int_bound 5)))
    (fun ops ->
      let h = H.create_star ~seed:5 ~peers:8 () in
      let w = H.world h in
      let joiner = make_peer w ~host:999 ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 () in
      let scan () =
        World.live_peers w
        |> List.filter (fun p -> Peer.is_t_peer p && p.Peer.alive)
        |> List.sort (fun a b -> compare (a.Peer.p_id, a.Peer.host) (b.Peer.p_id, b.Peer.host))
        |> List.fold_left
             (fun best p ->
               match best with
               | Some b when World.snet_size w b <= World.snet_size w p -> best
               | Some _ | None -> Some p)
             None
      in
      List.for_all
        (fun (kind, host, x) ->
          let host = 16 + host in
          (match (kind, World.find_peer w ~host) with
           | (0 | 1), None ->
             World.register w (make_peer w ~host ~p_id:(x * 7) ~role:Peer.T_peer ~link_capacity:1.0 ())
           | 2, Some p ->
             Peer.set_alive p false;
             World.unregister w p
           | 3, Some p when Peer.is_t_peer p -> World.set_snet_size w p x
           | 4, Some p when Peer.is_t_peer p -> World.snet_size_changed w p ~delta:(x - 2)
           | _ -> ());
          Option.equal ( == ) (scan ()) (World.choose_s_network w ~joiner))
        ops)

(* Property: under any mix of registrations on hosts spread over several
   doublings of the slot array, re-registrations of an occupied host
   (displacing a t-peer among them) and unregistrations, the rank
   search over the live-count index finds exactly the list's k-th peer,
   for every rank, and refuses ranks outside [0, peer_count). *)
let prop_nth_live_peer_matches_list =
  QCheck.Test.make ~name:"nth_live_peer k = List.nth live_peers k" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 80) (triple (int_bound 2) (int_bound 299) bool))
    (fun ops ->
      let h = H.create_star ~seed:5 ~peers:16 () in
      let w = H.world h in
      let agrees () =
        let live = World.live_peers w in
        let n = World.peer_count w in
        let out_of_range k =
          match World.nth_live_peer w k with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        List.length live = n
        && List.for_all2 ( == ) live (List.init n (World.nth_live_peer w))
        && out_of_range (-1) && out_of_range n
      in
      List.for_all
        (fun (kind, host, t_role) ->
          let role = if t_role then Peer.T_peer else Peer.S_peer in
          let make () = make_peer w ~host ~p_id:(host * 7919) ~role ~link_capacity:1.0 () in
          (match (kind, World.find_peer w ~host) with
           | 2, Some p ->
             Peer.set_alive p false;
             World.unregister w p
           | _ -> World.register w (make ()));
          agrees ())
        ops)

(* Property: [H.random_peer] makes the draw [Rng.pick_list] makes over
   [H.peers], so a copy of the world's generator taken before the draw
   picks the same peer and ends in the same state, through joins,
   crashes and repairs. *)
let prop_random_peer_is_pick_list =
  QCheck.Test.make ~name:"random_peer = Rng.pick_list over H.peers" ~count:25
    QCheck.(pair (int_bound 1000) (list_of_size Gen.(int_range 1 12) (int_bound 3)))
    (fun (seed, steps) ->
      let h, _ = star_system ~seed ~n:40 ~ps:0.7 () in
      let w = H.world h in
      let same_draw () =
        let copy = Rng.copy w.World.rng in
        let expected = Rng.pick_list copy (H.peers h) in
        H.random_peer h == expected && Rng.int copy 1_000_000 = Rng.int w.World.rng 1_000_000
      in
      List.for_all
        (fun step ->
          (match step with
           | 0 -> ignore (H.grow h ~count:3 ~s_fraction:0.7 : Peer.t array)
           | 1 ->
             H.crash h (H.random_peer h);
             H.repair h;
             H.run h
           | _ -> ());
          List.for_all (fun _ -> same_draw ()) [ 1; 2; 3 ])
        steps)

let test_stabilize_ring_rewires () =
  let h, peers = world_with_ring [ 100; 200; 300; 400 ] in
  let w = H.world h in
  (* scramble the pointers *)
  List.iter
    (fun p ->
      Peer.set_succ p (Some p);
      Peer.set_pred p None)
    peers;
  World.stabilize_ring w;
  ok_invariants h

let test_snet_size_accounting_via_joins () =
  let h, tpeers = world_with_ring [ 100 ] in
  let w = H.world h in
  let root = List.hd tpeers in
  checki "starts empty" 0 (World.snet_size w root);
  for host = 10 to 14 do
    ignore (H.join h ~host ~role:Peer.S_peer () : Peer.t);
    H.run h
  done;
  checki "five joined" 5 (World.snet_size w root);
  let victim = List.find Peer.is_s_peer (H.peers h) in
  H.leave h victim ();
  H.run h;
  checki "one left" 4 (World.snet_size w root)

(* --- the change journal (Change_log) --- *)

module Change_log = Hybrid_p2p.Change_log
module Data_store = Hybrid_p2p.Data_store

let entries j = List.init (Change_log.length j) (Change_log.get j)

let check_entries what expected j =
  Alcotest.check Alcotest.(list int) what expected (entries j)

(* Before its first restart a journal records nothing and no recording
   is readable. *)
let test_journal_off_until_restarted () =
  let j = Change_log.create () in
  Change_log.add j 7;
  checki "generation 0" 0 (Change_log.generation j);
  checki "nothing recorded" 0 (Change_log.length j);
  checkb "gen 0 unreadable" false (Change_log.readable j ~gen:0);
  checkb "gen 1 unreadable" false (Change_log.readable j ~gen:1)

(* Recording numbers rise and are never reused, also after an overflow
   turned the journal off. *)
let test_journal_numbers_never_reused () =
  let j = Change_log.create () in
  let g1 = Change_log.restart j ~limit:1 in
  let g2 = Change_log.restart j ~limit:1 in
  checkb "positive" true (g1 > 0);
  checkb "rising" true (g2 > g1);
  checkb "the older recording ended" false (Change_log.readable j ~gen:g1);
  Change_log.add j 1;
  Change_log.add j 2;
  checki "overflowed: off" 0 (Change_log.generation j);
  let g3 = Change_log.restart j ~limit:1 in
  checkb "fresh after an overflow" true (g3 > g2);
  checkb "the overflowed recording stays unreadable" false (Change_log.readable j ~gen:g2)

(* [limit] entries fit, read back oldest first; the next one turns the
   journal off and drops them all, until the next restart. *)
let test_journal_limit () =
  let j = Change_log.create () in
  let gen = Change_log.restart j ~limit:40 in
  for i = 1 to 40 do Change_log.add j i done;
  check_entries "oldest first" (List.init 40 (fun i -> i + 1)) j;
  checkb "full, still readable" true (Change_log.readable j ~gen);
  Change_log.add j 41;
  checkb "overflowed: unreadable" false (Change_log.readable j ~gen);
  checki "overflowed: off" 0 (Change_log.generation j);
  checki "overflowed: entries dropped" 0 (Change_log.length j);
  Change_log.add j 42;
  checki "off: still nothing" 0 (Change_log.length j);
  let gen = Change_log.restart j ~limit:40 in
  Change_log.add j 43;
  checkb "restarted: readable" true (Change_log.readable j ~gen);
  check_entries "restarted: recording again" [ 43 ] j

(* [stop] ends a recording's readability and recording; what it held
   stays readable until the next restart. *)
let test_journal_stop () =
  let j = Change_log.create () in
  let gen = Change_log.restart j ~limit:10 in
  Change_log.add j 1;
  Change_log.stop j;
  checkb "stopped: unreadable" false (Change_log.readable j ~gen);
  checki "stopped: off" 0 (Change_log.generation j);
  Change_log.add j 2;
  check_entries "stopped: the entries before stay, nothing after" [ 1 ] j;
  ignore (Change_log.restart j ~limit:10 : int);
  checki "restarted: emptied" 0 (Change_log.length j)

(* A store that belongs to no world journals nowhere, and its journal
   cannot be turned on. *)
let test_journal_of_no_world () =
  let w = H.world (fst (world_with_ring [ 100 ])) in
  Alcotest.check_raises "restart refused"
    (Invalid_argument "Change_log.restart: the journal of no world")
    (fun () -> ignore (Change_log.restart Data_store.no_world ~limit:10 : int));
  let keys = (World.change_log w).Peer.keys in
  ignore (Change_log.restart keys ~limit:10 : int);
  let stray = make_peer w ~host:(-1) ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 () in
  Data_store.insert stray.Peer.store ~key:"k" ~value:"v";
  let bare = Data_store.create ~interner:(World.interner w) () in
  Data_store.insert bare ~key:"k" ~value:"v";
  checki "nothing reached the world's journal" 0 (Change_log.length keys);
  let p = make_peer w ~host:40 ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 () in
  Data_store.insert p.Peer.replicas ~key:"k" ~value:"v";
  match entries keys with
  | [ e ] ->
    checki "the key" (Hybrid_p2p.Intern.intern (World.interner w) "k") (Data_store.entry_kid e);
    checki "the replica store's tag" (Data_store.tag p.Peer.replicas) (Data_store.entry_tag e);
    checki "whose host" 40 (Peer.tag_host (Data_store.entry_tag e));
    checkb "a replica tag" true (Peer.is_replica_tag (Data_store.entry_tag e))
  | l -> Alcotest.failf "%d entries, expected 1" (List.length l)

(* A peer written twice in one recording is journaled once, and again
   in the next recording; a restart or an overflow keeps no entry of an
   ended recording alive. *)
let test_journal_peer_once_per_recording () =
  let w = H.world (fst (world_with_ring [ 100 ])) in
  let peers = (World.change_log w).Peer.peers in
  let p = make_peer w ~host:40 ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 () in
  Peer.set_joining p true;
  checki "off: nothing journaled" 0 (Change_log.length peers);
  ignore (Change_log.restart peers ~limit:10 : int);
  Peer.set_joining p false;
  Peer.set_leaving p true;
  checki "written twice, journaled once" 1 (Change_log.length peers);
  checkb "the peer" true (Change_log.get peers 0 == p);
  ignore (Change_log.restart peers ~limit:10 : int);
  Peer.set_leaving p false;
  checki "journaled again after a restart" 1 (Change_log.length peers);
  let dropped ended =
    let weak = Weak.create 1 in
    (fun () ->
      let q = make_peer w ~host:41 ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 () in
      Peer.log_change q;
      Weak.set weak 0 (Some (Sys.opaque_identity q)))
      ();
    ended ();
    Gc.full_major ();
    Option.is_none (Weak.get weak 0)
  in
  checkb "a restart drops the last recording's peers" true
    (dropped (fun () -> ignore (Change_log.restart peers ~limit:10 : int)));
  checkb "an overflow drops its peers" true
    (dropped (fun () ->
         for host = 0 to 10 do
           Peer.log_change (make_peer w ~host ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 ())
         done))

let suite =
  [
    Alcotest.test_case "membership directory" `Quick test_membership_directory;
    Alcotest.test_case "register rejects a foreign interner" `Quick
      test_register_rejects_foreign_interner;
    Alcotest.test_case "t-peers sorted" `Quick test_t_peers_sorted;
    Alcotest.test_case "t-peers cache = oracle under churn" `Quick
      test_t_peers_cache_matches_oracle;
    Alcotest.test_case "oracle owner" `Quick test_oracle_owner;
    Alcotest.test_case "policy: smallest s-network" `Quick test_smallest_s_network_policy;
    Alcotest.test_case "policy: by interest" `Quick test_by_interest_policy_uses_route_id;
    Alcotest.test_case "policy: by cluster prefers local" `Quick
      test_by_cluster_prefers_local_t_peer;
    Alcotest.test_case "fresh p_id in range" `Quick test_fresh_p_id_in_range;
    Alcotest.test_case "finger refresh and substitution" `Quick
      test_refresh_and_substitute_fingers;
    Alcotest.test_case "fingers follow refresh points" `Quick
      test_fingers_follow_refresh_points;
    Alcotest.test_case "smallest s-network = first-minimum scan" `Quick
      test_smallest_s_network_matches_scan;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261017 |])
      prop_ring_matches_scan;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261017 |])
      prop_size_heap_matches_scan;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261017 |])
      prop_nth_live_peer_matches_list;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261017 |])
      prop_random_peer_is_pick_list;
    Alcotest.test_case "stabilize_ring rewires" `Quick test_stabilize_ring_rewires;
    Alcotest.test_case "s-network size accounting" `Quick test_snet_size_accounting_via_joins;
    Alcotest.test_case "journal: off until restarted" `Quick test_journal_off_until_restarted;
    Alcotest.test_case "journal: recording numbers never reused" `Quick
      test_journal_numbers_never_reused;
    Alcotest.test_case "journal: limit, then overflow" `Quick test_journal_limit;
    Alcotest.test_case "journal: stop" `Quick test_journal_stop;
    Alcotest.test_case "journal: a store of no world" `Quick test_journal_of_no_world;
    Alcotest.test_case "journal: a peer once per recording" `Quick
      test_journal_peer_once_per_recording;
  ]
