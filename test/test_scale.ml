(* Scale-refactor tests: key interning, the flat data store, the flat
   world membership (successor-index wraparound), the event schedules of
   a seeded churn run and a concurrent-join run, pinned to constants,
   the finger work of a protocol-built system and the lookup cost of
   finger-routed data. *)

open Helpers
module Intern = Hybrid_p2p.Intern
module Data_store = Hybrid_p2p.Data_store
module Engine = P2p_sim.Engine
module Pipeline = P2p_scenario.Pipeline

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* --- key interning ----------------------------------------------------- *)

let test_intern_round_trip () =
  let t = Intern.create () in
  let ids = List.map (fun k -> Intern.intern t k) [ "a"; "b"; "c" ] in
  checki "dense ids from zero" 0 (List.nth ids 0);
  checki "dense ids in order" 2 (List.nth ids 2);
  checki "count" 3 (Intern.count t);
  (* duplicate interning is stable and does not grow the table *)
  checki "re-intern returns same id" (List.nth ids 1) (Intern.intern t "b");
  checki "count unchanged" 3 (Intern.count t);
  (* id -> name -> id round trip *)
  List.iteri
    (fun i id ->
      let name = Intern.name t id in
      checks "name round-trips" (List.nth [ "a"; "b"; "c" ] i) name;
      checki "find round-trips" id (Option.get (Intern.find t name)))
    ids;
  (* find never interns *)
  checkb "find misses unknown" true (Intern.find t "zzz" = None);
  checki "find did not intern" 3 (Intern.count t);
  checkb "mem_id in range" true (Intern.mem_id t 2);
  checkb "mem_id out of range" false (Intern.mem_id t 3)

let test_intern_growth () =
  let t = Intern.create ~initial_capacity:2 () in
  for i = 0 to 999 do
    checki "sequential ids" i (Intern.intern t (string_of_int i))
  done;
  checki "all interned" 1000 (Intern.count t);
  for i = 0 to 999 do
    checki "stable after growth" i (Intern.intern t (string_of_int i))
  done;
  checki "no duplicates" 1000 (Intern.count t)

(* --- flat data store --------------------------------------------------- *)

let test_store_basics () =
  let s = Data_store.create ~interner:(Intern.create ()) () in
  checki "empty" 0 (Data_store.size s);
  checkb "find on empty" true (Data_store.find s ~key:"a" = None);
  for i = 0 to 199 do
    Data_store.insert s
      ~key:(Printf.sprintf "k%d" i)
      ~value:(Printf.sprintf "v%d" i)
  done;
  checki "all inserted" 200 (Data_store.size s);
  for i = 0 to 199 do
    checks "find after growth"
      (Printf.sprintf "v%d" i)
      (Option.get (Data_store.find s ~key:(Printf.sprintf "k%d" i)))
  done;
  (* overwrite does not grow *)
  Data_store.insert s ~key:"k7" ~value:"fresh";
  checki "overwrite keeps size" 200 (Data_store.size s);
  checks "overwrite wins" "fresh" (Option.get (Data_store.find s ~key:"k7"))

let test_store_tombstones () =
  let s = Data_store.create ~interner:(Intern.create ()) () in
  for i = 0 to 99 do
    Data_store.insert s ~key:(Printf.sprintf "k%d" i) ~value:"v"
  done;
  for i = 0 to 99 do
    if i mod 2 = 0 then Data_store.remove s ~key:(Printf.sprintf "k%d" i)
  done;
  checki "half removed" 50 (Data_store.size s);
  for i = 0 to 99 do
    let expect = i mod 2 = 1 in
    checkb "survivors only" expect
      (Data_store.mem s ~key:(Printf.sprintf "k%d" i))
  done;
  (* tombstoned slots are reused: re-insert the removed half *)
  for i = 0 to 99 do
    if i mod 2 = 0 then
      Data_store.insert s ~key:(Printf.sprintf "k%d" i) ~value:"back"
  done;
  checki "all back" 100 (Data_store.size s);
  checks "re-inserted readable" "back" (Option.get (Data_store.find s ~key:"k0"));
  (* remove everything, store stays usable *)
  for i = 0 to 99 do
    Data_store.remove s ~key:(Printf.sprintf "k%d" i)
  done;
  checki "emptied" 0 (Data_store.size s);
  Data_store.insert s ~key:"again" ~value:"x";
  checkb "usable after full drain" true (Data_store.mem s ~key:"again")

let test_store_shared_interner () =
  let interner = Intern.create () in
  let a = Data_store.create ~interner () in
  let b = Data_store.create ~interner () in
  Data_store.insert a ~key:"shared-key" ~value:"1";
  let before = Intern.count interner in
  (* the key is already interned; only the new value "2" is added *)
  Data_store.insert b ~key:"shared-key" ~value:"2";
  checki "second store reuses the interned key" (before + 1)
    (Intern.count interner);
  Data_store.insert b ~key:"shared-key" ~value:"1";
  checki "fully shared key+value interns nothing" (before + 1)
    (Intern.count interner);
  Data_store.insert b ~key:"shared-key" ~value:"2";
  checks "stores stay independent" "1"
    (Option.get (Data_store.find a ~key:"shared-key"));
  checks "stores stay independent (b)" "2"
    (Option.get (Data_store.find b ~key:"shared-key"))

(* --- flat world: successor index --------------------------------------- *)

let test_successor_index_wraparound () =
  let h = H.create_star ~seed:11 ~peers:16 () in
  let ids = [ 100; 200; 300 ] in
  List.iteri
    (fun host p_id ->
      ignore (H.join h ~host ~role:Peer.T_peer ~p_id ());
      H.run h)
    ids;
  let w = H.world h in
  let succ_id d = (World.t_peers w).(World.successor_index w d).Peer.p_id in
  checki "below the ring minimum" 100 (succ_id 50);
  checki "interior gap" 200 (succ_id 150);
  checki "exact hit maps to itself" 200 (succ_id 200);
  checki "last arc" 300 (succ_id 250);
  checki "past the maximum wraps to index 0" 100 (succ_id 301);
  checki "top of the id space wraps" 100
    (succ_id (P2p_hashspace.Id_space.size - 1))

(* --- requester draws ------------------------------------------------------ *)

(* A requester draw ranks into the live-count index: at 5,000 peers it
   must not build the N-element peer list (~15,000 words per draw). *)
let test_random_peer_allocation () =
  let peers = 5000 in
  let h = H.create_star ~seed:12 ~peers () in
  let w = H.world h in
  for host = 0 to peers - 1 do
    World.register w
      (Peer.make ~log:(World.change_log w) ~interner:(World.interner w) ~host ~p_id:(host * 7919) ~role:Peer.S_peer
         ~link_capacity:1.0 ())
  done;
  let draws = 1000 in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    sink := !sink + (H.random_peer h).Peer.host
  done;
  let per_draw = (Gc.minor_words () -. before) /. float_of_int draws in
  checkb "drew live hosts" true (!sink >= 0);
  checkb (Printf.sprintf "%.1f minor words per draw < 10" per_draw) true (per_draw < 10.0)

(* --- in-flight state ------------------------------------------------------- *)

(* A pending lookup holds one context record, its slot in the expiry
   batch it shares with every lookup issued at the same instant, and its
   first message in flight: no timer, engine event or closure of its
   own.  run-1k issues 20,000 lookups at once, and their in-flight state
   sets its peak heap.  The live-word delta is taken after a full major
   collection, on a second batch, so the event queue's arrays have
   already grown. *)
let test_pending_lookup_words () =
  let h, rng = Pipeline.build ~ps:0.8 ~seed:5 ~n:200 ~config:Config.default () in
  let p = Pipeline.attach h in
  let corpus = Pipeline.insert p ~rng ~count:400 in
  let count = 2000 in
  let batch () =
    let targets = P2p_workload.Keys.lookup_sequence ~rng ~items:corpus ~count in
    (targets, Array.map (fun _ -> H.random_peer h) targets)
  in
  let issue (targets, froms) =
    Array.iteri
      (fun i it ->
        H.lookup h ~from:froms.(i) ~key:it.P2p_workload.Keys.key ~on_result:ignore ())
      targets
  in
  issue (batch ());
  Pipeline.settle p;
  let second = batch () in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  issue second;
  let per_lookup = float_of_int (live () - before) /. float_of_int count in
  Pipeline.settle p;
  checki "every lookup found" 0 (P2p_net.Metrics.lookups_failed (H.metrics h));
  (* 24.3 measured, plus a small margin *)
  let ceiling = 26.0 in
  checkb
    (Printf.sprintf "%.1f live words per pending lookup (ceiling %.0f)" per_lookup ceiling)
    true (per_lookup <= ceiling)

(* --- lookup expiry batches ------------------------------------------------ *)

(* Lookup attempts started at one instant share one expiry timer.  Every
   engine event other than an underlay delivery is a timer fire, so
   events executed minus messages counts the batches that fired. *)
let timer_fires h =
  Engine.events_executed (H.engine h) - P2p_net.Metrics.messages (H.metrics h)

(* [count] lookups of keys no peer holds, issued now; returns the
   outcomes as (issue index, report time), in report order. *)
let issue_missing h ~count =
  let reports = ref [] in
  for i = 0 to count - 1 do
    H.lookup h ~from:(H.random_peer h) ~key:(Printf.sprintf "absent-%d" i)
      ~on_result:(function
        | Data_ops.Timed_out -> reports := (i, H.now h) :: !reports
        | Data_ops.Found _ -> Alcotest.fail "found a key no peer holds")
      ()
  done;
  reports

let test_batch_times_out_together () =
  let h, _ = star_system ~seed:41 ~n:40 ~ps:0.7 () in
  let timeout = (H.config h).Config.lookup_timeout in
  let fires = timer_fires h and t0 = H.now h in
  let reports = issue_missing h ~count:5 in
  H.run h;
  Alcotest.(check (list int)) "timed out in issue order" [ 0; 1; 2; 3; 4 ]
    (List.rev_map fst !reports);
  List.iter
    (fun (_, at) -> checkb "reported exactly lookup_timeout after issue" true (at = t0 +. timeout))
    !reports;
  checki "one timer event for five timeouts" 1 (timer_fires h - fires)

let test_batch_all_found_never_fires () =
  let h, _ = star_system ~seed:42 ~n:40 ~ps:0.7 () in
  let keys = insert_items h ~count:20 in
  let timeout = (H.config h).Config.lookup_timeout in
  let t0 = H.now h in
  let found = ref 0 in
  List.iter
    (fun key ->
      H.lookup h ~from:(H.random_peer h) ~key
        ~on_result:(function Data_ops.Found _ -> incr found | Data_ops.Timed_out -> ())
        ())
    keys;
  H.run h;
  checki "every lookup found" 20 !found;
  checki "no event left pending" 0 (Engine.pending (H.engine h));
  checkb (Printf.sprintf "clock stopped at the last reply (%.1f ms)" (H.now h -. t0)) true
    (H.now h < timeout)

let test_batch_reflood_rearms () =
  let config = { Config.default with Config.reflood_attempts = 1 } in
  (* one t-peer: every key is its tree's, and the tree has depth 2 *)
  let h, members = star_system ~config ~seed:43 ~n:30 ~ps:1.0 () in
  let root = members.(0) in
  let deep = List.find (fun p -> Peer.depth p = 2) (Peer.tree_members root) in
  H.insert h ~from:deep ~key:"deep" ~value:"v" ();
  H.run h;
  let timeout = config.Config.lookup_timeout in
  let t0 = H.now h in
  let outcome = ref None in
  H.lookup h ~from:root ~key:"deep" ~ttl:1 ~on_result:(fun r -> outcome := Some (r, H.now h)) ();
  let reports = issue_missing h ~count:1 in
  H.run h;
  (match !outcome with
   | Some (Data_ops.Found { hops; _ }, at) ->
     (* the TTL-1 flood cannot reach depth 2; the TTL-2 reflood started
        at the expiry instant does *)
     checki "found by the reflood at depth 2 (two tree hops and the reply)" 3 hops;
     checkb "after the first expiry" true (at > t0 +. timeout && at < t0 +. (2.0 *. timeout))
   | Some (Data_ops.Timed_out, _) | None -> Alcotest.fail "the reflood missed depth 2");
  match !reports with
  | [ (0, at) ] -> checkb "re-armed at the expiry instant" true (at = t0 +. (2.0 *. timeout))
  | _ -> Alcotest.fail "the missing key reported other than once"

let test_batches_per_instant () =
  let h, _ = star_system ~seed:44 ~n:40 ~ps:0.7 () in
  let timeout = (H.config h).Config.lookup_timeout in
  let fires = timer_fires h in
  let t0 = H.now h in
  let first = issue_missing h ~count:3 in
  H.run_for h 10.0;
  let t1 = H.now h in
  let second = issue_missing h ~count:3 in
  H.run h;
  checkb "two instants" true (t1 > t0);
  List.iter (fun (_, at) -> checkb "first batch" true (at = t0 +. timeout)) !first;
  List.iter (fun (_, at) -> checkb "second batch" true (at = t1 +. timeout)) !second;
  checki "one timer event per batch" 2 (timer_fires h - fires)

(* --- routing tables ------------------------------------------------------ *)

(* The link-state router of a run's underlay at creation: the graph, the
   per-host arrays and each stub domain's adjacency, with no in-domain
   answer solved yet.  At 5,000 peers (36 stub domains of 139 nodes) it
   is 144,667 words, 76,878 of them the graph; at 20,000 (36 of 556),
   571,467.  The all-pairs tables it replaced held 1,135,293 and
   17,055,537 words, growing with the square of a domain's size. *)
let test_routing_table_words () =
  List.iter
    (fun (peers, ceiling) ->
      let topo =
        P2p_topology.Transit_stub.generate ~rng:(P2p_sim.Rng.create 42001)
          (Pipeline.topology_for peers)
      in
      let words =
        Obj.reachable_words
          (Obj.repr (P2p_topology.Routing.create topo.P2p_topology.Transit_stub.graph))
      in
      checkb
        (Printf.sprintf "%d words of link-state routing at %d peers (ceiling %d)" words peers
           ceiling)
        true (words <= ceiling))
    [ (5000, 200_000); (20000, 800_000) ]

(* --- peer records ---------------------------------------------------------- *)

(* Reachable words of run-5k's population (5,000 peers at p_s 0.97),
   less the interner and change log every peer shares, per peer.  Each
   feature table (soft cache, edge summaries, tracker index, watchdogs)
   exists only from its first write, and this run writes none; when
   each peer held three empty Hashtbls and an empty cache the figure
   read ~152. *)
let test_peer_words () =
  let config = { Config.default with Config.default_ttl = 12 } in
  let h, _ = Pipeline.build ~ps:0.97 ~seed:42000 ~n:5000 ~config () in
  let w = H.world h in
  let peers = World.live_peers w in
  let words v = Obj.reachable_words (Obj.repr v) in
  let shared = words (World.interner w) + words (World.change_log w) in
  let per_peer = float_of_int (words peers - shared) /. float_of_int (List.length peers) in
  checki "peers" 5000 (List.length peers);
  let ceiling = 70.0 in
  checkb
    (Printf.sprintf "%.1f words per peer (ceiling %.0f)" per_peer ceiling)
    true (per_peer <= ceiling)

(* A write to one peer's feature table allocates that peer's own table:
   a second peer still reads all four as empty. *)
let test_feature_tables_private () =
  let h = H.create_star ~seed:5 ~peers:4 () in
  let w = H.world h in
  let make host =
    Peer.make ~log:(World.change_log w) ~interner:(World.interner w) ~host ~p_id:0
      ~role:Peer.S_peer ~link_capacity:1.0 ()
  in
  let a = make (-1) and b = make (-2) in
  Peer.set_tracked a "k" a;
  Peer.set_watchdog a 7 (World.one_shot w ~delay:1.0 ignore);
  Peer.set_summary a 7 [| Hybrid_p2p.Bloom.create ~expected:1 ~bits_per_key:8 |];
  Peer.cache_put a ~capacity:4 ~now:0.0 ~lifetime:10.0 ~key:"k" ~value:"v";
  checkb "tracker written" true
    (match Peer.tracked a "k" with Some p -> p == a | None -> false);
  checkb "watchdog written" true (Peer.watchdog a 7 <> None);
  checkb "summary written" true (Peer.summary a 7 <> None);
  checkb "cache written" true (Peer.cached a ~now:1.0 ~key:"k" = Some "v");
  checkb "other tracker empty" true (Peer.tracked b "k" = None);
  checkb "other watchdogs empty" true (Peer.watchdog b 7 = None);
  checkb "other summaries empty" true (Peer.summary b 7 = None);
  checkb "other cache empty" true (Peer.cached b ~now:1.0 ~key:"k" = None);
  H.run h

(* --- ring rebuilds ------------------------------------------------------- *)

(* Each t-join rebuilds the sorted ring array.  Past 256 t-peers that
   array is larger than the runtime's limit for minor-heap blocks, and
   filling it with a just-joined, still-young peer made the runtime run
   a minor collection first: one per t-join (14,622 of them for 14,761
   t-peers at 50,000 peers).  Over the 100 t-joins from 300 t-peers on,
   the rebuilds must not force collections of their own. *)
let test_ring_rebuild_minor_collections () =
  let h = H.create_star ~seed:5 ~peers:420 () in
  let join () =
    ignore (H.join h ~host:(H.fresh_host h) ~role:Peer.T_peer () : Peer.t);
    H.run h
  in
  for _ = 1 to 300 do
    join ()
  done;
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for _ = 1 to 100 do
    join ()
  done;
  let minors = (Gc.quick_stat ()).Gc.minor_collections - before in
  checki "t-peers" 400 (H.t_peer_count h);
  checkb
    (Printf.sprintf "%d minor collections over 100 t-joins past 300 t-peers (ceiling 20)" minors)
    true (minors <= 20)

(* --- schedule pin under churn ------------------------------------------- *)

(* A seeded 2000-peer churn run pinned to constants: any change to the
   event-ordering policy moves at least one of the executed-event count,
   the underlay message count or the stored-item set. *)
let stored_items h =
  let acc = ref [] in
  World.iter_peers (H.world h)
    (fun p ->
      Data_store.iter p.Peer.store (fun ~key ~value ~route_id ->
          acc := Printf.sprintf "%d|%s|%s|%d" p.Peer.host key value route_id :: !acc));
  List.sort compare !acc

let churn_run () =
  let h, _ = star_system ~config:Config.paper ~seed:7 ~capacity:2200 ~n:2000 ~ps:0.8 () in
  ignore (insert_items h ~count:200 : string list);
  (* churn: crash a deterministic slice, then heal *)
  let victims =
    List.filteri (fun i _ -> i mod 17 = 3) (World.live_peers (H.world h))
  in
  List.iter (fun p -> H.crash h p) victims;
  H.repair h;
  H.run h;
  ok_invariants h;
  h

let test_schedule_pinned () =
  let h = churn_run () in
  let events = Engine.events_executed (H.engine h) in
  let messages = P2p_net.Metrics.messages (H.metrics h) in
  let digest =
    Digest.to_hex (Digest.string (String.concat "\n" (stored_items h)))
  in
  checki "events executed" 43597 events;
  checki "underlay messages" 43597 messages;
  checks "stored-item digest" "cc2116870eb1605de9289f3e900c13e2" digest

(* --- concurrent joins over finger routing -------------------------------- *)

(* Waves of 60 joins in flight at once, with inserts and lookups issued
   while the ring is still changing, then crashes, repairs and t-peer
   leaves between waves.  Finger walks started before a wave's later
   joins land keep reading the fingers of the ring as it was when they
   began, so this run pins the finger-refresh schedule, not just the
   final state. *)
let concurrent_join_run () =
  let h = H.create_star ~seed:19 ~peers:800 () in
  let w = H.world h in
  let rng = P2p_sim.Rng.create 23 in
  let keys = ref [||] in
  let ok = ref 0 and failed = ref 0 in
  let random_live () = P2p_sim.Rng.pick_list rng (World.live_peers w) in
  for wave = 0 to 9 do
    for i = 0 to 59 do
      let role =
        if P2p_sim.Rng.bernoulli rng 0.5 then Peer.S_peer else Peer.T_peer
      in
      ignore (H.join h ~host:(H.fresh_host h) ~role () : Peer.t);
      if i mod 3 = 0 && World.peer_count w > 0 then begin
        let key = Printf.sprintf "cj-%d-%d" wave i in
        keys := Array.append !keys [| key |];
        H.insert h ~from:(random_live ()) ~key ~value:("v:" ^ key) ()
      end;
      if i mod 3 = 1 && Array.length !keys > 0 then
        H.lookup h ~from:(random_live ())
          ~key:(P2p_sim.Rng.pick rng !keys)
          ~on_result:(function
            | Data_ops.Found _ -> incr ok
            | Data_ops.Timed_out -> incr failed)
          ()
    done;
    H.run h;
    if wave mod 3 = 1 then begin
      let victims =
        List.filteri (fun i _ -> i mod 29 = wave) (World.live_peers w)
      in
      List.iter (fun p -> H.crash h p) victims;
      H.repair h;
      H.run h
    end;
    if wave mod 3 = 2 then begin
      let t_peers = World.t_peers w in
      List.iter
        (fun i -> H.leave h t_peers.(i * 7 mod Array.length t_peers) ())
        [ 1; 2; 3 ];
      H.run h
    end
  done;
  ok_invariants h;
  (h, !ok, !failed)

let test_concurrent_joins_pinned () =
  let h, ok, failed = concurrent_join_run () in
  let m = H.metrics h in
  let digest =
    Digest.to_hex (Digest.string (String.concat "\n" (stored_items h)))
  in
  checki "events executed" 5624 (Engine.events_executed (H.engine h));
  checki "underlay messages" 5621 (P2p_net.Metrics.messages m);
  checki "lookups found" 193 ok;
  checki "lookups timed out" 7 failed;
  checki "connum" 1464 (P2p_net.Metrics.connum m);
  checks "stored-item digest" "fe745e9fc0f9820359267033b26c637e" digest

(* Join-time finger work is near-linear: a 2,000-peer build at p_s 0.6
   (~800 t-peers) recomputes about one table per t-join plus the few
   tables each join walk reads.  Refreshing every table at every t-join
   would cost about T^2/2, some 320,000 tables. *)
let test_join_refresh_work_bounded () =
  let h, _ = star_system ~seed:5 ~capacity:2100 ~n:2000 ~ps:0.6 () in
  let w = H.world h in
  let t = Array.length (World.t_peers w) in
  let log2_t = int_of_float (Float.ceil (Float.log2 (float_of_int t))) in
  let ceiling = 4 * t * log2_t in
  let refreshes = World.finger_refreshes w in
  checkb
    (Printf.sprintf "%d tables recomputed for %d t-peers (ceiling %d)" refreshes t ceiling)
    true (refreshes <= ceiling)

(* --- lookup cost of the default ------------------------------------------ *)

(* The default routes data by fingers: over T t-peers a lookup takes
   O(log T) ring hops.  [Config.paper] differs from it only in forwarding
   one successor at a time, ~T/2 hops on the same seeded workload. *)
let test_default_lookup_hops () =
  let mean_hops config =
    let h, rng = Pipeline.build ~ps:0.8 ~seed:3 ~n:1000 ~config () in
    let p = Pipeline.attach h in
    let corpus = Pipeline.insert p ~rng ~count:200 in
    Pipeline.lookup p (P2p_workload.Keys.lookup_sequence ~rng ~items:corpus ~count:200);
    (H.t_peer_count h, P2p_stats.Summary.mean (P2p_net.Metrics.lookup_hops (H.metrics h)))
  in
  checkb "paper = default but for data routing" true
    ({ Config.paper with Config.use_fingers_for_data = true } = Config.default
    && not Config.paper.Config.use_fingers_for_data);
  let t, fingers = mean_hops Config.default in
  let bound = (2.0 *. Float.log2 (float_of_int t)) +. 4.0 in
  checkb (Printf.sprintf "default: %.2f hops over %d t-peers (< %.2f)" fingers t bound) true
    (fingers < bound);
  let t', linear = mean_hops Config.paper in
  checki "same ring" t t';
  checkb (Printf.sprintf "paper: %.2f hops over %d t-peers (> %d / 4)" linear t t) true
    (linear > float_of_int t /. 4.0)

(* --- telemetry leaves the simulation alone --------------------------------- *)

(* Tracing observes a run and must never steer it: one seeded 1,000-peer
   world, built and driven through [Pipeline] with tracing off,
   head-sampled at 0.01 and full, executes the same events, sends the
   same underlay messages and finds the same lookups. *)
let test_telemetry_leaves_simulation_unchanged () =
  let run trace =
    let h, rng = Pipeline.build ?trace ~ps:0.8 ~seed:11 ~n:1000 ~config:Config.default () in
    let p = Pipeline.attach h in
    let corpus = Pipeline.insert p ~rng ~count:300 in
    Pipeline.lookup p (P2p_workload.Keys.lookup_sequence ~rng ~items:corpus ~count:300);
    let m = H.metrics h in
    ( Engine.events_executed (H.engine h),
      P2p_net.Metrics.messages m,
      P2p_net.Metrics.lookups_succeeded m )
  in
  let events, messages, found = run None in
  checkb "the workload ran" true (events > 0 && messages > 0 && found > 0);
  List.iter
    (fun (label, trace) ->
      let events', messages', found' = run (Some trace) in
      checki (label ^ ": events executed") events events';
      checki (label ^ ": underlay/messages") messages messages';
      checki (label ^ ": lookups found") found found')
    [
      ("sampled", P2p_sim.Trace.create ~capacity:100_000 ~sample_rate:0.01 ~sample_seed:11 ());
      ("full", P2p_sim.Trace.create ~capacity:100_000 ());
    ]

let suite =
  [
    Alcotest.test_case "intern: round trips" `Quick test_intern_round_trip;
    Alcotest.test_case "intern: growth keeps ids" `Quick test_intern_growth;
    Alcotest.test_case "flat store: insert/find/overwrite" `Quick
      test_store_basics;
    Alcotest.test_case "flat store: tombstone reuse" `Quick
      test_store_tombstones;
    Alcotest.test_case "flat store: shared interner" `Quick
      test_store_shared_interner;
    Alcotest.test_case "world: successor index wraparound" `Quick
      test_successor_index_wraparound;
    Alcotest.test_case "random_peer: O(1) words per draw" `Quick
      test_random_peer_allocation;
    Alcotest.test_case "routing: link-state words at 5,000 peers" `Quick
      test_routing_table_words;
    Alcotest.test_case "peer: words per peer at default config" `Quick test_peer_words;
    Alcotest.test_case "peer: feature tables are private" `Quick
      test_feature_tables_private;
    Alcotest.test_case "ring: rebuilds force no minor collections" `Quick
      test_ring_rebuild_minor_collections;
    Alcotest.test_case "lookups: live words per pending lookup" `Quick
      test_pending_lookup_words;
    Alcotest.test_case "expiry batch: one event for its timeouts" `Quick
      test_batch_times_out_together;
    Alcotest.test_case "expiry batch: all found, never fires" `Quick
      test_batch_all_found_never_fires;
    Alcotest.test_case "expiry batch: reflood re-arms" `Quick test_batch_reflood_rearms;
    Alcotest.test_case "expiry batch: one per instant" `Quick test_batches_per_instant;
    Alcotest.test_case "schedule: churn run pinned" `Slow test_schedule_pinned;
    Alcotest.test_case "lookups: finger-routed by default" `Slow test_default_lookup_hops;
    Alcotest.test_case "schedule: concurrent joins pinned" `Slow
      test_concurrent_joins_pinned;
    Alcotest.test_case "telemetry: simulation unchanged" `Quick
      test_telemetry_leaves_simulation_unchanged;
    Alcotest.test_case "joins: finger work near-linear" `Slow
      test_join_refresh_work_bounded;
  ]
