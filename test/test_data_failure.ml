(* Tests for Data_ops corner cases and the Failure machinery. *)

open Helpers
module Metrics = P2p_net.Metrics
module Data_store = Hybrid_p2p.Data_store
module Intern = Hybrid_p2p.Intern
module Id_space = P2p_hashspace.Id_space
module Key_hash = P2p_hashspace.Key_hash

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Data_store --- *)

let test_store_basic () =
  let s = Data_store.create ~interner:(Intern.create ()) () in
  checki "empty" 0 (Data_store.size s);
  Data_store.insert s ~key:"a" ~value:"1";
  Data_store.insert s ~key:"b" ~value:"2";
  Data_store.insert s ~key:"a" ~value:"3";
  checki "replace not duplicate" 2 (Data_store.size s);
  Alcotest.check (Alcotest.option Alcotest.string) "updated" (Some "3")
    (Data_store.find s ~key:"a");
  checkb "mem" true (Data_store.mem s ~key:"b");
  Data_store.remove s ~key:"b";
  checkb "removed" false (Data_store.mem s ~key:"b")

let test_store_take_segment () =
  let s = Data_store.create ~interner:(Intern.create ()) () in
  for i = 0 to 99 do
    Data_store.insert s ~key:(Printf.sprintf "seg-%d" i) ~value:"v"
  done;
  (* split the space in half; the two segments must partition the store *)
  let mid = Id_space.size / 2 in
  let first = Data_store.take_segment s ~left:0 ~right:mid in
  let second = Data_store.take_segment s ~left:mid ~right:0 in
  checki "partition covers all" 100 (List.length first + List.length second);
  checki "store drained" 0 (Data_store.size s);
  List.iter
    (fun (_, _, route_id) ->
      checkb "in first segment" true
        (Id_space.between_incl_right route_id ~left:0 ~right:mid))
    first

let test_store_take_segment_wraparound () =
  (* a segment with left > right wraps through zero: (size-100, 50] *)
  let s = Data_store.create ~interner:(Intern.create ()) () in
  let left = Id_space.size - 100 and right = 50 in
  Data_store.insert_routed s ~route_id:(Id_space.size - 50) ~key:"hi-side" ~value:"v";
  Data_store.insert_routed s ~route_id:20 ~key:"lo-side" ~value:"v";
  Data_store.insert_routed s ~route_id:right ~key:"right-edge" ~value:"v";
  Data_store.insert_routed s ~route_id:left ~key:"left-edge" ~value:"v";
  Data_store.insert_routed s ~route_id:500 ~key:"outside" ~value:"v";
  let taken = Data_store.take_segment s ~left ~right in
  let keys = List.sort compare (List.map (fun (k, _, _) -> k) taken) in
  (* half-open (left, right]: the left edge stays, the right edge moves *)
  Alcotest.check (Alcotest.list Alcotest.string) "wrapped segment"
    [ "hi-side"; "lo-side"; "right-edge" ] keys;
  checki "others untouched" 2 (Data_store.size s);
  checkb "left edge stays" true (Data_store.mem s ~key:"left-edge");
  checkb "outside stays" true (Data_store.mem s ~key:"outside")

let test_store_segment_items_wraparound () =
  (* the non-destructive view agrees with take_segment across the wrap,
     and the digest tracks segment content *)
  let s = Data_store.create ~interner:(Intern.create ()) () in
  let left = Id_space.size - 10 and right = 10 in
  Data_store.insert_routed s ~route_id:(Id_space.size - 3) ~key:"a" ~value:"1";
  Data_store.insert_routed s ~route_id:7 ~key:"b" ~value:"2";
  Data_store.insert_routed s ~route_id:9999 ~key:"c" ~value:"3";
  let viewed = Data_store.segment_items s ~left ~right in
  checki "view is non-destructive" 3 (Data_store.size s);
  let d_before = Data_store.segment_digest s ~left ~right in
  checki "digest matches viewed items" d_before (Data_store.digest_items viewed);
  let taken = Data_store.take_segment s ~left ~right in
  checki "view agrees with take" (List.length viewed) (List.length taken);
  checkb "digest changes when segment drained" true
    (Data_store.segment_digest s ~left ~right <> d_before)

let test_store_take_all () =
  let s = Data_store.create ~interner:(Intern.create ()) () in
  Data_store.insert s ~key:"x" ~value:"1";
  Data_store.insert s ~key:"y" ~value:"2";
  let all = Data_store.take_all s in
  checki "two items" 2 (List.length all);
  checki "empty after" 0 (Data_store.size s)

(* [find_id] probes by interned id and agrees with [find] for present,
   absent, removed and post-rehash keys, and for a key interned only by
   another store sharing the interner. *)
let test_store_find_id () =
  let interner = Intern.create () in
  let s = Data_store.create ~interner () in
  let other = Data_store.create ~interner () in
  let agree key =
    let by_id =
      match Intern.find interner key with
      | Some kid -> Data_store.find_id s kid
      | None -> None
    in
    Alcotest.check (Alcotest.option Alcotest.string) key (Data_store.find s ~key) by_id
  in
  Data_store.insert s ~key:"present" ~value:"1";
  Data_store.insert other ~key:"elsewhere" ~value:"2";
  Data_store.insert s ~key:"removed" ~value:"3";
  Data_store.remove s ~key:"removed";
  List.iter agree [ "present"; "never-interned"; "elsewhere"; "removed" ];
  (* grow through several rehashes, leaving tombstones behind *)
  for i = 0 to 199 do
    let key = Printf.sprintf "k-%d" i in
    Data_store.insert s ~key ~value:(string_of_int i);
    if i mod 3 = 0 then Data_store.remove s ~key
  done;
  for i = 0 to 199 do
    agree (Printf.sprintf "k-%d" i)
  done;
  List.iter agree [ "present"; "elsewhere"; "removed" ];
  Alcotest.check (Alcotest.option Alcotest.string) "present after rehash" (Some "1")
    (Data_store.find_id s (Option.get (Intern.find interner "present")))

(* --- Data_ops --- *)

let test_insert_local_stays_home () =
  let h, _ = star_system ~seed:40 ~n:60 ~ps:0.7 () in
  (* craft a key owned by the peer's own s-network *)
  let p = H.random_peer h in
  let home = Option.get p.Peer.t_home in
  let rec find_local i =
    let key = Printf.sprintf "local-%d" i in
    if Peer.covers home (P2p_hashspace.Key_hash.of_string key) then key
    else find_local (i + 1)
  in
  let key = find_local 0 in
  let holder = ref None in
  H.insert h ~from:p ~key ~value:"v" ~on_done:(fun ~holder:hl ~hops:_ -> holder := Some hl) ();
  H.run h;
  match !holder with
  | None -> Alcotest.fail "insert never completed"
  | Some holder ->
    checkb "stored at the generating peer itself" true (holder == p)

let test_insert_remote_lands_in_owner_segment () =
  let h, _ = star_system ~seed:41 ~n:60 ~ps:0.7 () in
  let p = H.random_peer h in
  let home = Option.get p.Peer.t_home in
  let rec find_remote i =
    let key = Printf.sprintf "remote-%d" i in
    if Peer.covers home (P2p_hashspace.Key_hash.of_string key) then find_remote (i + 1)
    else key
  in
  let key = find_remote 0 in
  let holder = ref None in
  H.insert h ~from:p ~key ~value:"v" ~on_done:(fun ~holder:hl ~hops:_ -> holder := Some hl) ();
  H.run h;
  match !holder with
  | None -> Alcotest.fail "insert never completed"
  | Some holder ->
    let holder_home = Option.get holder.Peer.t_home in
    checkb "holder's s-network serves the key" true
      (Peer.covers holder_home (P2p_hashspace.Key_hash.of_string key))

let test_lookup_ttl_zero_vs_large () =
  (* deep item in a big s-network: ttl 0 from the t-peer misses it unless
     the t-peer holds it; a large ttl finds it *)
  let config = { default_config with Config.placement = Config.Store_at_tpeer } in
  let h, _ = star_system ~config ~seed:42 ~n:80 ~ps:0.9 () in
  ignore (insert_items h ~count:100 : string list);
  (* place an item by hand at the deepest leaf of the s-network that owns
     its d_id, so the query's flood is what must reach it *)
  let w = H.world h in
  let owner =
    Option.get (World.oracle_owner w (P2p_hashspace.Key_hash.of_string "deep-item"))
  in
  let deep =
    List.fold_left
      (fun best p -> if Peer.depth p > Peer.depth best then p else best)
      owner (Peer.tree_members owner)
  in
  checkb "found a deep peer" true (Peer.depth deep >= 2);
  Data_store.insert deep.Peer.store ~key:"deep-item" ~value:"v";
  (* lookup from another s-network so the query goes through the ring and
     floods from the t-peer *)
  let other =
    List.find
      (fun p -> Option.get p.Peer.t_home != Option.get deep.Peer.t_home)
      (H.peers h)
  in
  let r0 = lookup_sync h ~from:other ~key:"deep-item" ~ttl:0 () in
  checkb "ttl 0 misses deep item" false (found r0);
  let r8 = lookup_sync h ~from:other ~key:"deep-item" ~ttl:8 () in
  checkb "ttl 8 finds it" true (found r8)

(* A lookup issued before its key was ever inserted, raced by the insert
   that first interns the key: the lookup's first probe, at the
   requester, runs before the key exists; the insert then stores it in
   the owner's s-network, and the flood that later reaches that s-network
   must find it there. *)
let test_lookup_raced_by_first_insert () =
  let h, _ = star_system ~config:Config.paper ~seed:45 ~n:60 ~ps:0.7 () in
  ignore (insert_items h ~count:20 : string list);
  let w = H.world h in
  let key = "raced-item" in
  checkb "key not yet interned" true (Intern.find (World.interner w) key = None);
  let owner = Option.get (World.oracle_owner w (Key_hash.of_string key)) in
  let inserter = List.find (fun p -> p != owner) (Peer.tree_members owner) in
  let requester = List.find (fun p -> p.Peer.t_home != Some owner) (H.peers h) in
  let result = ref None in
  H.lookup h ~from:requester ~key ~ttl:8 ~on_result:(fun r -> result := Some r) ();
  H.insert h ~from:inserter ~key ~value:"v" ();
  H.run h;
  match !result with
  | Some (Data_ops.Found { holder; hops; _ }) ->
    checkb "found at the inserter" true (holder == inserter);
    checki "hops, as by string" 5 hops
  | Some Data_ops.Timed_out -> Alcotest.fail "lookup timed out"
  | None -> Alcotest.fail "lookup callback never fired"

let test_connum_counts_ring_contacts () =
  let h, _ = star_system ~seed:43 ~n:50 ~ps:0.0 () in
  ignore (insert_items h ~count:20 : string list);
  let before = Metrics.connum (H.metrics h) in
  let r = lookup_sync h ~from:(H.random_peer h) ~key:"item-00000" () in
  checkb "found" true (found r);
  let per_lookup = Metrics.connum (H.metrics h) - before in
  (* pure ring walk: expect on the order of N/2 contacts *)
  checkb (Printf.sprintf "ring-walk connum %d" per_lookup) true
    (per_lookup >= 1 && per_lookup <= 50)

(* Pure ring (p_s 0), linear forwarding: a holder k successors along the
   ring from the requester is found by the ring walk's own check at that
   t-peer, k ring hops out, plus the reply hop. *)
let test_lookup_hops_count_ring_path () =
  let h, _ = star_system ~config:Config.paper ~seed:46 ~n:40 ~ps:0.0 () in
  let requester = H.random_peer h in
  let rec along peer k = if k = 0 then peer else along (Option.get peer.Peer.succ) (k - 1) in
  for k = 1 to 4 do
    let holder = along requester k in
    let rec owned_key i =
      let key = Printf.sprintf "ring-%d-%d" k i in
      if Peer.covers holder (Key_hash.of_string key) then key else owned_key (i + 1)
    in
    let key = owned_key 0 in
    H.insert h ~from:holder ~key ~value:"v" ();
    H.run h;
    match lookup_sync h ~from:requester ~key () with
    | Data_ops.Found { holder = found_at; hops; _ } ->
      checkb (Printf.sprintf "found at the t-peer %d hops out" k) true (found_at == holder);
      checki (Printf.sprintf "hops for a holder %d ring hops out" k) (k + 1) hops
    | Data_ops.Timed_out -> Alcotest.fail "lookup timed out"
  done

let test_lookup_latency_metrics_only_successes () =
  let h, _ = star_system ~seed:44 ~n:40 ~ps:0.5 () in
  ignore (insert_items h ~count:10 : string list);
  ignore (lookup_sync h ~from:(H.random_peer h) ~key:"item-00001" () : Data_ops.lookup_outcome);
  ignore (lookup_sync h ~from:(H.random_peer h) ~key:"missing" () : Data_ops.lookup_outcome);
  let m = H.metrics h in
  checki "one success" 1 (Metrics.lookups_succeeded m);
  checki "one failure" 1 (Metrics.lookups_failed m);
  checki "latency samples = successes" 1
    (P2p_stats.Summary.count (Metrics.lookup_latency m))

(* --- Failure --- *)

let test_crash_dead_peer_rejected () =
  let h, _ = star_system ~seed:45 ~n:20 ~ps:0.5 () in
  let p = H.random_peer h in
  H.crash h p;
  Alcotest.check_raises "double crash" (Invalid_argument "Failure.crash: peer already dead")
    (fun () -> H.crash h p)

let test_repair_counts_sizes () =
  let h, _ = star_system ~seed:46 ~n:60 ~ps:0.8 () in
  let w = H.world h in
  (* crash a third of the s-peers *)
  let victims =
    List.filteri (fun i _ -> i mod 3 = 0) (List.filter Peer.is_s_peer (H.peers h))
  in
  List.iter (H.crash h) victims;
  H.repair h;
  H.run h;
  ok_invariants h;
  (* size table matches reality *)
  Array.iter
    (fun tp ->
      checki
        (Printf.sprintf "size of s-network at #%d" tp.Peer.host)
        (List.length (Peer.tree_members tp) - 1)
        (World.snet_size w tp))
    (World.t_peers w)

let test_repair_smallest_host_promoted () =
  let h, _ = star_system ~seed:47 ~n:40 ~ps:0.8 () in
  let victim = List.find (fun p -> Peer.is_t_peer p && p.Peer.children <> []) (H.peers h) in
  let members =
    List.filter (fun m -> m != victim) (Peer.tree_members victim)
  in
  let smallest =
    List.fold_left (fun b m -> if m.Peer.host < b.Peer.host then m else b)
      (List.hd members) members
  in
  let old_pid = victim.Peer.p_id in
  H.crash h victim;
  H.repair h;
  H.run h;
  checkb "smallest-address survivor promoted" true
    (Peer.is_t_peer smallest && smallest.Peer.p_id = old_pid);
  ok_invariants h

(* A stowaway wired into a tree without registering (a negative host,
   as [audit --inject degree] plants) has the smallest address but no
   entry in the directory: the election passes it over for the smallest
   registered survivor, where promoting it raised in [World.register]. *)
let test_election_skips_unregistered () =
  let h, _ = star_system ~seed:47 ~n:40 ~ps:0.8 () in
  let w = H.world h in
  let victim = List.find (fun p -> Peer.is_t_peer p && p.Peer.children <> []) (H.peers h) in
  let members = List.filter (fun m -> m != victim) (Peer.tree_members victim) in
  let smallest =
    List.fold_left (fun b m -> if m.Peer.host < b.Peer.host then m else b)
      (List.hd members) members
  in
  let stowaway =
    Peer.make ~log:(World.change_log w) ~interner:(World.interner w) ~host:(-1)
      ~p_id:victim.Peer.p_id ~role:Peer.S_peer ~link_capacity:10.0 ()
  in
  Peer.attach_child ~parent:victim ~child:stowaway;
  let old_pid = victim.Peer.p_id in
  H.crash h victim;
  H.repair h;
  H.run h;
  checkb "the smallest registered survivor promoted" true
    (Peer.is_t_peer smallest && smallest.Peer.p_id = old_pid);
  checkb "the stowaway stays an s-peer" true (Peer.is_s_peer stowaway);
  ok_invariants h

let test_repair_idempotent () =
  let h, _ = star_system ~seed:48 ~n:50 ~ps:0.7 () in
  List.iter (H.crash h) (List.filteri (fun i _ -> i mod 7 = 0) (H.peers h));
  H.repair h;
  H.run h;
  ok_invariants h;
  H.repair h;
  H.run h;
  ok_invariants h

let test_cascading_crashes_online () =
  let config =
    { default_config with Config.heartbeats = true; hello_period = 10.0;
      hello_timeout = 35.0 }
  in
  let h, _ = star_system ~config ~seed:49 ~n:50 ~ps:0.7 () in
  (* crash several peers at once, including t-peers *)
  let victims = List.filteri (fun i _ -> i mod 6 = 0) (H.peers h) in
  List.iter (H.crash h) victims;
  H.run_for h 2000.0;
  ok_invariants h;
  checki "population" (50 - List.length victims) (H.peer_count h)

let test_lost_fraction_matches_crash_fraction () =
  (* data loss after a crash storm should be roughly proportional to the
     crashed fraction under the spread placement *)
  let h, _ = star_system ~seed:50 ~n:100 ~ps:0.7 () in
  ignore (insert_items h ~count:1000 : string list);
  let before = H.total_items h in
  let victims = List.filteri (fun i _ -> i mod 5 = 0) (H.peers h) in
  List.iter (H.crash h) victims;
  H.repair h;
  H.run h;
  let lost = before - H.total_items h in
  let lost_fraction = float_of_int lost /. float_of_int before in
  checkb
    (Printf.sprintf "lost fraction %.2f near 0.20" lost_fraction)
    true
    (lost_fraction > 0.05 && lost_fraction < 0.45)

let test_partitioned_insert_rehomed () =
  (* regression: items written while the only t-peer was crashed (the
     writer's s-network orphaned) must be re-homed by repair so the
     placement invariant holds and the items stay findable *)
  let h = H.create_star ~seed:51 ~peers:16 () in
  let t0 = H.join h ~host:0 () in
  H.run h;
  let s1 = H.join h ~host:1 ~role:Peer.S_peer () in
  H.run h;
  H.crash h t0;
  (* the orphan writes while partitioned *)
  H.insert h ~from:s1 ~key:"orphan-item" ~value:"v" ();
  H.run h;
  (* a new t-peer bootstraps a fresh ring *)
  ignore (H.join h ~host:2 ~role:Peer.T_peer () : Peer.t);
  H.run h;
  H.repair h;
  H.run h;
  ok_invariants h;
  let r = lookup_sync h ~from:(H.random_peer h) ~key:"orphan-item" () in
  checkb "re-homed item findable" true (found r)

let test_join_survives_empty_ring_race () =
  (* regression: a t-join in flight while the last t-peer leaves must not
     be dropped — the joiner retries and bootstraps a fresh ring *)
  let h = H.create_star ~seed:52 ~peers:16 () in
  let a = H.join h ~host:0 ~p_id:0 () in
  H.run h;
  let joiners =
    List.init 3 (fun i -> H.join h ~host:(1 + i) ~p_id:((i + 1) * 1000) ~role:Peer.T_peer ())
  in
  H.leave h a ();
  H.run h;
  checki "all joiners made it" 3 (H.peer_count h);
  List.iter (fun p -> checkb "wired" true (p.Peer.succ <> None)) joiners;
  ok_invariants h

let suite =
  [
    Alcotest.test_case "data_store: basics" `Quick test_store_basic;
    Alcotest.test_case "repair: election skips an unregistered stowaway" `Quick
      test_election_skips_unregistered;
    Alcotest.test_case "data_store: take_segment partitions" `Quick test_store_take_segment;
    Alcotest.test_case "data_store: take_segment wraps through zero" `Quick
      test_store_take_segment_wraparound;
    Alcotest.test_case "data_store: segment view/digest across wrap" `Quick
      test_store_segment_items_wraparound;
    Alcotest.test_case "data_store: take_all" `Quick test_store_take_all;
    Alcotest.test_case "data_store: find_id agrees with find" `Quick test_store_find_id;
    Alcotest.test_case "insert: local stays home" `Quick test_insert_local_stays_home;
    Alcotest.test_case "insert: remote lands in owner segment" `Quick
      test_insert_remote_lands_in_owner_segment;
    Alcotest.test_case "lookup: ttl gates deep items" `Quick test_lookup_ttl_zero_vs_large;
    Alcotest.test_case "lookup: raced by the key's first insert" `Quick
      test_lookup_raced_by_first_insert;
    Alcotest.test_case "lookup: connum counts ring walk" `Quick
      test_connum_counts_ring_contacts;
    Alcotest.test_case "lookup: hops count the ring path" `Quick
      test_lookup_hops_count_ring_path;
    Alcotest.test_case "lookup: latency only on success" `Quick
      test_lookup_latency_metrics_only_successes;
    Alcotest.test_case "failure: double crash rejected" `Quick test_crash_dead_peer_rejected;
    Alcotest.test_case "failure: repair recounts sizes" `Quick test_repair_counts_sizes;
    Alcotest.test_case "failure: smallest host promoted" `Quick
      test_repair_smallest_host_promoted;
    Alcotest.test_case "failure: repair idempotent" `Quick test_repair_idempotent;
    Alcotest.test_case "failure: cascading crashes online" `Quick
      test_cascading_crashes_online;
    Alcotest.test_case "failure: loss proportional to crashes" `Quick
      test_lost_fraction_matches_crash_fraction;
    Alcotest.test_case "failure: partitioned insert re-homed" `Quick
      test_partitioned_insert_rehomed;
    Alcotest.test_case "failure: join survives empty-ring race" `Quick
      test_join_survives_empty_ring_race;
  ]
