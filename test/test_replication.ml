(* Tests for the replication & anti-entropy durability layer
   (lib/replication): placement policy, write-path fan-out, read-path
   fallback, crash survival through heal, the replication_factor audit
   check, and digest-based anti-entropy convergence. *)

open Helpers
module Data_store = Hybrid_p2p.Data_store
module Policy = P2p_replication.Policy
module Manager = P2p_replication.Manager
module Registry = P2p_obs.Registry
module Metrics = P2p_net.Metrics
module Checks = P2p_audit.Checks
module Scenario = P2p_scenario.Scenario
module Pipeline = P2p_scenario.Pipeline

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let r_config r = { default_config with Config.replication_factor = r }

(* A settled replicated system: star underlay, manager installed before
   any data exists so every insert fans out. *)
let replicated_system ?(seed = 60) ~n ~ps ~r () =
  let h, members = star_system ~config:(r_config r) ~seed ~n ~ps () in
  let m = Manager.install (H.world h) in
  (h, members, m)

(* A ring of exactly [t_peers] t-peers with [s_peers] s-peers below
   them, replicated at [r]. *)
let small_ring ~seed ~t_peers ~s_peers ~r =
  let h = H.create_star ~seed ~peers:64 ~config:(r_config r) () in
  for host = 0 to t_peers + s_peers - 1 do
    let role = if host < t_peers then Peer.T_peer else Peer.S_peer in
    ignore (H.join h ~host ~role () : Peer.t);
    H.run h
  done;
  ignore (Manager.install (H.world h) : Manager.t);
  h

let replication_counter h name =
  let reg = Metrics.registry (H.metrics h) in
  Registry.counter_value (Registry.counter reg ~subsystem:"replication" ~name)

let run_replication_check h =
  match Checks.find "replication_factor" with
  | None -> Alcotest.fail "replication_factor check missing from catalogue"
  | Some c -> Checks.run c (H.world h)

let check_clean h =
  match (run_replication_check h).Checks.violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.fail
      (Format.asprintf "replication_factor violated: %a" Checks.pp_violation v)

let replica_copy_count h key =
  List.length (List.filter (fun p -> Data_store.mem p.Peer.replicas ~key) (H.peers h))

let primary_holder h key =
  List.find (fun p -> Data_store.mem p.Peer.store ~key) (H.peers h)

(* --- config ------------------------------------------------------------ *)

let test_config_validation () =
  checkb "default valid" true (Result.is_ok (Config.validate Config.default));
  checkb "r = 2 valid" true (Result.is_ok (Config.validate (r_config 2)));
  checkb "negative factor rejected" true
    (Result.is_error
       (Config.validate { default_config with Config.replication_factor = -1 }))

(* --- placement policy -------------------------------------------------- *)

(* At r = 2 every peer gets the next two t-peers clockwise from its
   home, or every other t-peer when the ring is smaller than three; the
   replication_factor check holds the stores to exactly that. *)
let test_ring_policy_targets () =
  List.iter
    (fun (label, h, expected) ->
      let w = H.world h in
      checki (label ^ ": ring size") expected (min 2 (Array.length (World.t_peers w) - 1));
      ignore (insert_items h ~count:30 : string list);
      List.iter
        (fun p ->
          let targets = Policy.targets w ~primary:p in
          checki (label ^ ": ring targets") expected (List.length targets);
          checkb (label ^ ": never the primary") false (List.memq p targets);
          List.iter
            (fun tg ->
              checkb (label ^ ": target is a live t-peer") true
                (Peer.is_t_peer tg && tg.Peer.alive))
            targets;
          checki (label ^ ": targets distinct") (List.length targets)
            (List.length (List.sort_uniq compare (List.map (fun t -> t.Peer.host) targets))))
        (H.peers h);
      check_clean h)
    [
      (let h, _, _ = replicated_system ~seed:61 ~n:60 ~ps:0.7 ~r:2 () in
       ("60 peers", h, 2));
      ("1 t-peer", small_ring ~seed:62 ~t_peers:1 ~s_peers:5 ~r:2, 0);
      ("2 t-peers", small_ring ~seed:62 ~t_peers:2 ~s_peers:6 ~r:2, 1);
      ("3 t-peers", small_ring ~seed:62 ~t_peers:3 ~s_peers:3 ~r:2, 2);
    ]

(* --- write-path fan-out ------------------------------------------------ *)

let test_fanout_on_insert () =
  let h, _, _ = replicated_system ~seed:63 ~n:60 ~ps:0.7 ~r:2 () in
  let keys = insert_items h ~count:100 in
  let w = H.world h in
  List.iter
    (fun key ->
      let primary = primary_holder h key in
      let expected = min 2 (Policy.expected_copies w ~primary) in
      checki (Printf.sprintf "copies of %s" key) expected (replica_copy_count h key))
    keys;
  checkb "copies_written counted" true (replication_counter h "copies_written" > 0);
  check_clean h

(* --- read-path fallback ------------------------------------------------ *)

let test_read_falls_back_to_replica () =
  let h, _, _ = replicated_system ~seed:65 ~n:60 ~ps:0.7 ~r:2 () in
  ignore (insert_items h ~count:50 : string list);
  let key = "item-00007" in
  let holder = primary_holder h key in
  Data_store.remove holder.Peer.store ~key;
  (* query from a different s-network, from a peer not holding a copy *)
  let from =
    List.find
      (fun p ->
        Option.get p.Peer.t_home != Option.get holder.Peer.t_home
        && not (Data_store.mem p.Peer.replicas ~key))
      (H.peers h)
  in
  let r = lookup_sync h ~from ~key () in
  checkb "found via replica" true (found r);
  checkb "replica_hits counted" true (replication_counter h "replica_hits" > 0)

(* --- crash survival ---------------------------------------------------- *)

let test_crash_waves_lose_nothing () =
  let h, _, _ = replicated_system ~seed:66 ~n:100 ~ps:0.7 ~r:2 () in
  ignore (insert_items h ~count:400 : string list);
  let before = H.total_items h in
  checki "all inserted" 400 before;
  (* two 10% waves with a repair (and its heal) between.  [H.peers] is in
     ascending host order, so the stride is a deterministic victim draw;
     offset 5 is a draw in which no item loses its primary and both ring
     replicas inside one wave (such triple-kills are legitimately beyond
     r = 2, not a durability bug). *)
  for _ = 1 to 2 do
    let victims = List.filteri (fun i _ -> i mod 10 = 5) (H.peers h) in
    List.iter (H.crash h) victims;
    H.repair h;
    H.run h
  done;
  checki "no items lost" before (H.total_items h);
  ok_invariants h;
  check_clean h;
  checkb "promotions or re-replications happened" true
    (replication_counter h "promoted" + replication_counter h "re_replicated" > 0)

let test_baseline_r0_loses_data () =
  (* the same storm without replication loses items — the layer, not the
     storm, is what the previous test measures *)
  let h, _, _ = replicated_system ~seed:66 ~n:100 ~ps:0.7 ~r:0 () in
  ignore (insert_items h ~count:400 : string list);
  let before = H.total_items h in
  let victims = List.filteri (fun i _ -> i mod 10 = 5) (H.peers h) in
  List.iter (H.crash h) victims;
  H.repair h;
  H.run h;
  checkb "r = 0 loses items" true (H.total_items h < before)

(* --- the heal against its reference ------------------------------------- *)

let sorted_items store =
  let acc = ref [] in
  Data_store.iter store (fun ~key ~value ~route_id -> acc := (key, value, route_id) :: !acc);
  List.sort compare !acc

(* Every host's store and replica store, and the replication metrics. *)
let heal_state h =
  let w = H.world h in
  let stores =
    List.init (World.host_bound w) (fun host ->
        match World.find_peer w ~host with
        | None -> None
        | Some p -> Some (sorted_items p.Peer.store, sorted_items p.Peer.replicas))
  in
  let metrics =
    match List.assoc_opt "replication" (Registry.doc (Metrics.registry (H.metrics h))) with
    | Some rows -> rows
    | None -> []
  in
  (stores, metrics)

let check_same_heal label a b =
  let stores_a, metrics_a = heal_state a and stores_b, metrics_b = heal_state b in
  List.iteri
    (fun host (x, y) ->
      if x <> y then Alcotest.failf "%s: stores of host %d differ from the reference's" label host)
    (List.combine stores_a stores_b);
  checkb (label ^ ": replication metrics equal the reference's") true (metrics_a = metrics_b)

(* Two copies of one seeded system: [a] heals with the manager, [b] with
   the string-keyed reference, each repair's heal included.  Crash waves
   come first.  Then both get a key held as primary by two peers (with
   different values and homes), a replica copy beside its own primary,
   and a hand-built peer (holding a replica, a primary no other peer
   holds and a shadowed copy), and heal once more. *)
let test_heal_matches_reference r () =
  let system () =
    let h, _, m = replicated_system ~seed:73 ~n:120 ~ps:0.7 ~r () in
    ignore (insert_items h ~count:500 : string list);
    (h, m)
  in
  let a, m = system () and b, _ = system () in
  let wb = H.world b in
  wb.World.on_repaired <- Some (fun ~op:_ -> Heal_reference.heal wb);
  for wave = 1 to 3 do
    List.iter
      (fun h ->
        let victims = List.filteri (fun i _ -> i mod 10 = wave) (H.peers h) in
        List.iter (H.crash h) victims;
        H.repair h;
        H.run h)
      [ a; b ];
    check_same_heal (Printf.sprintf "r=%d wave %d" r wave) a b
  done;
  checkb "waves promoted and re-replicated" true
    (replication_counter a "promoted" > 0 && replication_counter a "re_replicated" > 0);
  let plant h =
    let w = H.world h in
    let key = "item-00007" in
    let first = primary_holder h key in
    let other =
      List.fold_left
        (fun acc p ->
          if p.Peer.alive && p.Peer.t_home != first.Peer.t_home then Some p else acc)
        None (H.peers h)
    in
    (match other with
     | Some p -> Data_store.insert p.Peer.store ~key ~value:"second primary"
     | None -> Alcotest.fail "no peer under another home");
    let shadowed = "item-00013" in
    Data_store.insert (primary_holder h shadowed).Peer.replicas ~key:shadowed
      ~value:("v:" ^ shadowed);
    let home = (World.t_peers w).(0) in
    let stranger =
      Peer.make ~log:(World.change_log w) ~interner:(World.interner w) ~host:(H.fresh_host h) ~p_id:home.Peer.p_id
        ~role:Peer.S_peer ~link_capacity:1.0 ()
    in
    Peer.set_t_home stranger (Some home);
    World.register w stranger;
    Data_store.insert stranger.Peer.replicas ~key:"item-00011" ~value:"v:item-00011";
    Data_store.insert stranger.Peer.store ~key:"ghost" ~value:"g";
    (* a primary beside its own replica copy *)
    Data_store.insert stranger.Peer.store ~key:"item-00017" ~value:"v:item-00017";
    Data_store.insert stranger.Peer.replicas ~key:"item-00017" ~value:"v:item-00017"
  in
  plant a;
  plant b;
  Manager.heal m;
  Heal_reference.heal wb;
  check_same_heal (Printf.sprintf "r=%d planted" r) a b;
  checkb "the ghost was replicated" true (replica_copy_count a "ghost" > 0)

(* Two copies of one seeded system: [a] heals with the manager, [b] with
   the reference, each repair's heal included. *)
let paired_systems ~seed ~n ~items =
  let system () =
    let h, _, m = replicated_system ~seed ~n ~ps:0.7 ~r:2 () in
    ignore (insert_items h ~count:items : string list);
    (h, m)
  in
  let a, m = system () and b, _ = system () in
  let wb = H.world b in
  wb.World.on_repaired <- Some (fun ~op:_ -> Heal_reference.heal wb);
  (a, m, b)

let on_both a b f =
  f a;
  f b

(* The peer on the [k]-th live host, counted round the population. *)
let nth_peer h k =
  let peers = H.peers h in
  List.nth peers (k mod List.length peers)

let crash_and_repair h victim =
  H.crash h (World.find_peer (H.world h) ~host:victim |> Option.get);
  H.repair h;
  H.run h

(* After every repair of a crash-wave script the incremental heal leaves
   what the reference leaves, over five seeds.  Between waves, a t-peer
   and an s-peer join (the ring successors, so the targets, of the
   joiner's predecessors move with no write to their keys), and an
   insert wave and a re-insert with a new value land between two
   heals. *)
let test_incremental_heal_matches_reference () =
  List.iter
    (fun seed ->
      let a, m, b = paired_systems ~seed ~n:90 ~items:300 in
      for wave = 1 to 3 do
        for c = 1 to 4 do
          let victim = (nth_peer a ((seed * 7) + (wave * 13) + (c * 5))).Peer.host in
          on_both a b (fun h -> crash_and_repair h victim);
          check_same_heal (Printf.sprintf "seed %d wave %d crash %d" seed wave c) a b
        done;
        on_both a b (fun h ->
            ignore (H.join h ~host:(H.fresh_host h) ~role:Peer.T_peer () : Peer.t);
            H.run h;
            ignore (H.join h ~host:(H.fresh_host h) ~role:Peer.S_peer () : Peer.t);
            H.run h;
            for i = 1 to 40 do
              let key = Printf.sprintf "wave-%d-%02d" wave i in
              H.insert h ~from:(H.random_peer h) ~key ~value:("v:" ^ key) ()
            done;
            H.insert h ~from:(H.random_peer h) ~key:"item-00005"
              ~value:(Printf.sprintf "v%d" wave) ();
            H.run h)
      done;
      let stats = Manager.heal_stats m in
      checki (Printf.sprintf "seed %d: one census, the first pass" seed) 1
        stats.Manager.full_censuses;
      checki (Printf.sprintf "seed %d: a heal per repair" seed) 12 stats.Manager.passes;
      checkb
        (Printf.sprintf "seed %d: %d keys examined over 12 passes" seed stats.Manager.examined)
        true
        (stats.Manager.examined < 2 * 300))
    [ 101; 102; 103; 104; 105 ]

(* The heal leaves what the reference leaves after each of its two
   fallbacks to a full census, the first pass and a log that overflowed
   between two heals, and after each membership move the log carries
   with no census: a hand-wired peer registered already holding copies,
   and a graceful t-peer leave (its replica store goes with it). *)
let test_heal_fallbacks_match_reference () =
  let a, m, b = paired_systems ~seed:111 ~n:90 ~items:300 in
  let censuses () = (Manager.heal_stats m).Manager.full_censuses in
  let heal_both () =
    Manager.heal m;
    Heal_reference.heal (H.world b);
    on_both a b H.run
  in
  on_both a b (fun h -> crash_and_repair h (nth_peer h 17).Peer.host);
  check_same_heal "first heal" a b;
  checki "the first heal takes the census" 1 (censuses ());
  (* an incremental pass, then an overflow: 400 inserts write ~1,200
     entries, past the 1,024-entry limit a 300-item book sets *)
  on_both a b (fun h -> crash_and_repair h (nth_peer h 23).Peer.host);
  checki "a crash alone needs no census" 1 (censuses ());
  on_both a b (fun h ->
      for i = 1 to 400 do
        let key = Printf.sprintf "flood-%03d" i in
        H.insert h ~from:(H.random_peer h) ~key ~value:key ()
      done;
      H.run h);
  on_both a b (fun h -> crash_and_repair h (nth_peer h 31).Peer.host);
  check_same_heal "after an overflow" a b;
  checki "an overflowed log takes a census" 2 (censuses ());
  (* a peer registered with a primary and a replica copy *)
  on_both a b (fun h ->
      let w = H.world h in
      let home = (World.t_peers w).(1) in
      let stranger =
        Peer.make ~log:(World.change_log w) ~interner:(World.interner w)
          ~host:(H.fresh_host h) ~p_id:home.Peer.p_id ~role:Peer.S_peer ~link_capacity:1.0 ()
      in
      Peer.set_t_home stranger (Some home);
      Data_store.insert stranger.Peer.store ~key:"stowaway" ~value:"s";
      Data_store.insert stranger.Peer.replicas ~key:"item-00021" ~value:"v:item-00021";
      World.register w stranger);
  heal_both ();
  check_same_heal "after a registration with copies" a b;
  checki "a registration with copies needs no census" 2 (censuses ());
  heal_both ();
  check_same_heal "a quiet heal" a b;
  checki "a quiet heal needs no census" 2 (censuses ());
  (* a graceful leave of a t-peer holding replicas *)
  on_both a b (fun h ->
      let leaver =
        List.find
          (fun p -> Peer.is_t_peer p && Data_store.size p.Peer.replicas > 0 && p.Peer.host <> 0)
          (H.peers h)
      in
      H.leave h leaver ();
      H.run h);
  heal_both ();
  check_same_heal "after a graceful t-peer leave" a b;
  checki "a leave with replicas needs no census" 2 (censuses ())

(* A key whose only copy is a replica while the ring is empty has no
   owner to be promoted to; the heal keeps it in view, and the first
   pass after a t-peer joins promotes it, with no census and no store
   write naming the key in between. *)
let test_unowned_key_promoted_when_ring_returns () =
  let h = H.create_star ~seed:131 ~peers:16 ~config:(r_config 2) () in
  let root = H.join h ~host:0 ~role:Peer.T_peer () in
  H.run h;
  let m = Manager.install (H.world h) in
  let w = H.world h in
  let holder =
    Peer.make ~log:(World.change_log w) ~interner:(World.interner w) ~host:(H.fresh_host h)
      ~p_id:root.Peer.p_id ~role:Peer.S_peer ~link_capacity:1.0 ()
  in
  World.register w holder;
  Data_store.insert holder.Peer.replicas ~key:"orphan" ~value:"o";
  H.crash h root;
  H.repair h;
  H.run h;
  checki "an empty ring" 0 (Array.length (World.t_peers w));
  let censuses = (Manager.heal_stats m).Manager.full_censuses in
  let joiner = H.join h ~host:(H.fresh_host h) ~role:Peer.T_peer () in
  H.run h;
  Manager.heal m;
  checkb "promoted into the new owner's store" true
    (Data_store.mem joiner.Peer.store ~key:"orphan");
  checki "without a census" censuses (Manager.heal_stats m).Manager.full_censuses

(* The point of the key log: a heal after one s-peer crash re-examines
   the keys that peer held, not the world's. *)
let test_heal_after_one_crash_is_small () =
  let h, _, m = replicated_system ~seed:121 ~n:150 ~ps:0.7 ~r:2 () in
  let keys = insert_items h ~count:3000 in
  let s_peer k =
    List.nth
      (List.filter
         (fun p -> Peer.is_s_peer p && Data_store.size p.Peer.store > 0)
         (H.peers h))
      k
  in
  crash_and_repair h (s_peer 3).Peer.host;
  let before = Manager.heal_stats m in
  let victim = s_peer 5 in
  let held = Data_store.size victim.Peer.store in
  crash_and_repair h victim.Peer.host;
  let after = Manager.heal_stats m in
  let examined = after.Manager.examined - before.Manager.examined in
  checki "no census" before.Manager.full_censuses after.Manager.full_censuses;
  checkb
    (Printf.sprintf "%d keys re-examined for a crash that held %d of %d" examined held
       (List.length keys))
    true
    (examined >= held && examined * 100 < List.length keys);
  check_clean h;
  checki "nothing lost" 3000 (H.total_items h)

(* --- audit check & heal ------------------------------------------------ *)

let test_dropped_replica_flagged_then_healed () =
  let h, _, m = replicated_system ~seed:67 ~n:60 ~ps:0.7 ~r:2 () in
  ignore (insert_items h ~count:100 : string list);
  check_clean h;
  let key = "item-00042" in
  let holder = List.find (fun p -> Data_store.mem p.Peer.replicas ~key) (H.peers h) in
  Data_store.remove holder.Peer.replicas ~key;
  let status = run_replication_check h in
  checkb "dropped copy flagged" true (status.Checks.violations <> []);
  Manager.heal m;
  H.run h;
  check_clean h;
  let w = H.world h in
  let expected = min 2 (Policy.expected_copies w ~primary:(primary_holder h key)) in
  checki "factor restored" expected (replica_copy_count h key)

(* The exact report for one dropped copy: the check tallies copies by
   interned key id, and must still name the key by its text, at its
   primary holder. *)
let test_dropped_replica_report () =
  let h, _, _ = replicated_system ~seed:69 ~n:60 ~ps:0.7 ~r:2 () in
  let keys = insert_items h ~count:100 in
  check_clean h;
  let w = H.world h in
  let key =
    List.find
      (fun key ->
        Policy.expected_copies w ~primary:(primary_holder h key) >= 2
        && replica_copy_count h key = 2)
      keys
  in
  let holder = List.find (fun p -> Data_store.mem p.Peer.replicas ~key) (H.peers h) in
  Data_store.remove holder.Peer.replicas ~key;
  Alcotest.(check (list string))
    "one violation, key text intact"
    [
      Printf.sprintf "item %S at #%d has 1 replica copies, expected 2" key
        (primary_holder h key).Peer.host;
    ]
    (List.map (fun v -> v.Checks.detail) (run_replication_check h).Checks.violations)

(* A peer built by hand and registered late: the check tallies its
   copies with everyone else's, including a key the world interned only
   when this peer stored it. *)
let test_hand_built_peer_tallied () =
  let h, _, _ = replicated_system ~seed:71 ~n:60 ~ps:0.7 ~r:2 () in
  let keys = insert_items h ~count:40 in
  let w = H.world h in
  let key = List.find (fun key -> replica_copy_count h key = 2) keys in
  let holder = List.find (fun p -> Data_store.mem p.Peer.replicas ~key) (H.peers h) in
  let home = (World.t_peers w).(0) in
  let stranger =
    Peer.make ~log:(World.change_log w) ~interner:(World.interner w) ~host:(H.fresh_host h) ~p_id:home.Peer.p_id
      ~role:Peer.S_peer ~link_capacity:1.0 ()
  in
  Peer.set_t_home stranger (Some home);
  World.register w stranger;
  (* the copy moves to the stranger: still two *)
  Data_store.remove holder.Peer.replicas ~key;
  Data_store.insert stranger.Peer.replicas ~key ~value:"v";
  (* a primary only the stranger holds, interned last *)
  Data_store.insert stranger.Peer.store ~key:"ghost" ~value:"g";
  let expected = min 2 (Policy.expected_copies w ~primary:stranger) in
  Alcotest.(check (list string))
    "only the ghost is short"
    [
      Printf.sprintf "item %S at #%d has 0 replica copies, expected %d" "ghost"
        stranger.Peer.host expected;
    ]
    (List.map (fun v -> v.Checks.detail) (run_replication_check h).Checks.violations)

(* [ring_successors] finds its home by binary search: it must agree with
   a scan of the sorted ring for every t-peer and factor. *)
let test_ring_successors_search () =
  let h, _, _ = replicated_system ~seed:70 ~n:80 ~ps:0.6 ~r:2 () in
  let w = H.world h in
  let arr = World.t_peers w in
  let n = Array.length arr in
  Array.iteri
    (fun i home ->
      for factor = 0 to 4 do
        let expected = List.init (min factor (n - 1)) (fun k -> arr.((i + k + 1) mod n)) in
        checkb "same successors" true
          (List.for_all2 ( == ) expected (Policy.ring_successors w ~home ~factor))
      done)
    arr;
  let stranger =
    Peer.make ~log:(World.change_log w) ~interner:(World.interner w) ~host:(-1) ~p_id:arr.(0).Peer.p_id
      ~role:Peer.T_peer ~link_capacity:1.0 ()
  in
  checki "a peer off the ring has none" 0
    (List.length (Policy.ring_successors w ~home:stranger ~factor:2))

(* --- anti-entropy ------------------------------------------------------ *)

let test_anti_entropy_converges () =
  let h, _, m = replicated_system ~seed:68 ~n:60 ~ps:0.7 ~r:2 () in
  ignore (insert_items h ~count:100 : string list);
  (* corrupt one replica store: drop a real copy, plant a stale one in
     the same ring segment *)
  let holder, (key, _, route_id) =
    List.filter_map
      (fun p ->
        let triple = ref None in
        Data_store.iter p.Peer.replicas (fun ~key ~value ~route_id ->
            if !triple = None then triple := Some (key, value, route_id));
        Option.map (fun t -> (p, t)) !triple)
      (H.peers h)
    |> List.hd
  in
  Data_store.remove holder.Peer.replicas ~key;
  Data_store.insert_routed holder.Peer.replicas ~route_id ~key:"bogus-stale-copy"
    ~value:"x";
  Manager.anti_entropy_round m;
  H.run h;
  checkb "missing copy restored" true (Data_store.mem holder.Peer.replicas ~key);
  checkb "stale copy pruned" false
    (Data_store.mem holder.Peer.replicas ~key:"bogus-stale-copy");
  checkb "mismatch counted" true (replication_counter h "digest_mismatches" > 0);
  checkb "prune counted" true (replication_counter h "stale_pruned" > 0);
  check_clean h

let test_anti_entropy_round_quiet_when_synced () =
  let h, _, m = replicated_system ~seed:69 ~n:40 ~ps:0.6 ~r:1 () in
  ignore (insert_items h ~count:50 : string list);
  Manager.anti_entropy_round m;
  H.run h;
  checki "no mismatches on a synced system" 0
    (replication_counter h "digest_mismatches");
  check_clean h

(* --- digests ----------------------------------------------------------- *)

let test_digest_order_independent () =
  let a = ("k1", "v1", 100) and b = ("k2", "v2", 200) in
  checki "order independent" (Data_store.digest_items [ a; b ])
    (Data_store.digest_items [ b; a ]);
  checkb "value change detected" true
    (Data_store.digest_items [ a ] <> Data_store.digest_items [ ("k1", "v9", 100) ]);
  checkb "count term distinguishes empty" true
    (Data_store.digest_items [] <> Data_store.digest_items [ a ])

(* --- scenario integration (timer bracket + no-loss) -------------------- *)

let test_scenario_anti_entropy_action () =
  let h = H.create_star ~seed:70 ~peers:400 ~config:(r_config 2) () in
  let report =
    Scenario.exec (Pipeline.attach h) ~seed:70
      ~script:
        [ Scenario.Join_many (40, 0.7); Scenario.Insert_items 150; Scenario.Settle;
          Scenario.Crash_fraction 0.1; Scenario.Repair;
          Scenario.Anti_entropy 2_000.0; Scenario.Lookup_items 100; Scenario.Settle ]
  in
  checkb "invariants hold" true (Result.is_ok report.Scenario.invariants);
  checki "no items lost" report.Scenario.inserted report.Scenario.final_items;
  checki "all lookups succeed" 100 report.Scenario.lookups_ok

let suite =
  [
    Alcotest.test_case "config: durability fields validated" `Quick
      test_config_validation;
    Alcotest.test_case "policy: ring successors" `Quick test_ring_policy_targets;
    Alcotest.test_case "fan-out: every insert replicated" `Quick test_fanout_on_insert;
    Alcotest.test_case "read: replica fallback serves lost primary" `Quick
      test_read_falls_back_to_replica;
    Alcotest.test_case "crash: waves + heal lose nothing (r=2)" `Quick
      test_crash_waves_lose_nothing;
    Alcotest.test_case "crash: r=0 baseline loses data" `Quick
      test_baseline_r0_loses_data;
    Alcotest.test_case "heal: equals the reference (r=1)" `Quick
      (test_heal_matches_reference 1);
    Alcotest.test_case "heal: equals the reference (r=2)" `Quick
      (test_heal_matches_reference 2);
    Alcotest.test_case "heal: incremental equals the reference, 5 seeds" `Quick
      test_incremental_heal_matches_reference;
    Alcotest.test_case "heal: each census fallback equals the reference" `Quick
      test_heal_fallbacks_match_reference;
    Alcotest.test_case "heal: an unowned key is promoted when the ring returns" `Quick
      test_unowned_key_promoted_when_ring_returns;
    Alcotest.test_case "heal: one s-peer crash re-examines < 1% of keys" `Quick
      test_heal_after_one_crash_is_small;
    Alcotest.test_case "audit: dropped copy flagged then healed" `Quick
      test_dropped_replica_flagged_then_healed;
    Alcotest.test_case "audit: dropped copy report (ring successors)" `Quick
      test_dropped_replica_report;
    Alcotest.test_case "audit: a hand-built peer's copies tallied" `Quick
      test_hand_built_peer_tallied;
    Alcotest.test_case "policy: ring successors by binary search" `Quick
      test_ring_successors_search;
    Alcotest.test_case "anti-entropy: restores and prunes" `Quick
      test_anti_entropy_converges;
    Alcotest.test_case "anti-entropy: quiet when synced" `Quick
      test_anti_entropy_round_quiet_when_synced;
    Alcotest.test_case "digest: order-independent set hash" `Quick
      test_digest_order_independent;
    Alcotest.test_case "scenario: anti-entropy action, no loss" `Quick
      test_scenario_anti_entropy_action;
  ]
