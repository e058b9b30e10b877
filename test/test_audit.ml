(* Online invariant auditing: the check catalogue over clean and
   deliberately corrupted systems, the periodic auditor's trace/registry
   reporting, and the scenario-level audit cadence. *)

open Helpers
module Checks = P2p_audit.Checks
module Auditor = P2p_audit.Auditor
module Trace = P2p_sim.Trace
module Registry = P2p_obs.Registry
module Metrics = P2p_net.Metrics
module Data_store = Hybrid_p2p.Data_store
module Scenario = P2p_scenario.Scenario
module Pipeline = P2p_scenario.Pipeline

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let no_violations snap =
  match Checks.violations snap with
  | [] -> ()
  | v :: _ -> Alcotest.fail (Format.asprintf "unexpected %a" Checks.pp_violation v)

let audit_counter h name =
  Registry.counter_value
    (Registry.counter (Metrics.registry (H.metrics h)) ~subsystem:"audit" ~name)

(* --- catalogue over clean systems --- *)

let test_clean_system () =
  let h, _ = star_system ~n:50 ~ps:0.6 () in
  let _keys = insert_items h ~count:120 in
  no_violations (Checks.run_all (H.world h));
  ok_invariants h

let test_catalogue_names () =
  checki "nine checks" 9 (List.length Checks.all);
  List.iter
    (fun name ->
      match Checks.find name with
      | Some c -> Alcotest.check Alcotest.string "find round-trips" name (Checks.check_name c)
      | None -> Alcotest.fail ("missing check " ^ name))
    Checks.names;
  checkb "select resolves" true
    (match Checks.select [ "ring_symmetry"; "load_balance" ] with
     | Ok [ a; b ] ->
       Checks.check_name a = "ring_symmetry" && Checks.check_name b = "load_balance"
     | _ -> false);
  checkb "select rejects unknown" true
    (match Checks.select [ "ring_symmetry"; "nonsense" ] with
     | Error "nonsense" -> true
     | _ -> false)

(* Clean system under graceful churn: online ticks during joins, leaves
   and lookups must not misreport in-flight protocol as damage. *)
let test_online_clean_churn () =
  let h, _ = star_system ~config:Config.paper ~n:30 ~ps:0.6 () in
  let a = Auditor.create ~interval:20.0 (H.world h) in
  let p = Pipeline.attach ~auditor:a h in
  let _ = H.grow h ~count:15 ~s_fraction:0.5 in
  Pipeline.settle p;
  let keys = insert_items h ~count:60 in
  Pipeline.settle p;
  List.iter
    (fun key -> ignore (lookup_sync h ~from:(H.random_peer h) ~key () : _))
    keys;
  Pipeline.settle p;
  (* a few graceful leaves, drained through the auditor *)
  for _ = 1 to 4 do
    H.leave h (H.random_peer h) ();
    Pipeline.settle p
  done;
  checkb "ticked repeatedly" true (Auditor.ticks a > 3);
  checki "no violations under graceful churn" 0 (Auditor.violations_total a)

(* --- deliberate corruption: the acceptance scenario --- *)

(* Force an s-peer over the degree cap, then advance through two audit
   periods: the next tick must emit a severity-tagged span and bump the
   matching audit/* counter. *)
let test_degree_corruption_detected () =
  let trace = Trace.create ~capacity:50_000 () in
  let h = H.create_star ~seed:7 ~peers:300 ~trace () in
  let _ = H.grow h ~count:40 ~s_fraction:0.6 in
  let a = Auditor.create ~interval:50.0 (H.world h) in
  let p = Pipeline.attach ~auditor:a h in
  checki "no tick yet" 0 (Auditor.ticks a);
  checki "counter starts at zero" 0 (audit_counter h "tree_structure_violations");
  (* over-cap wiring: stowaway children on the first root *)
  let w = H.world h in
  let root = (World.t_peers w).(0) in
  let delta = (H.config h).Config.delta in
  for i = 1 to delta + 1 do
    let child =
      Peer.make ~log:(World.change_log w) ~interner:(World.interner w) ~host:(-i) ~p_id:root.Peer.p_id
        ~role:Peer.S_peer ~link_capacity:1.0 ()
    in
    Peer.attach_child ~parent:root ~child
  done;
  checkb "degree now over cap" true (Peer.tree_degree root > delta);
  Pipeline.advance p ~ms:120.0;
  checkb "ticked on cadence" true (Auditor.ticks a >= 2);
  checkb "errors counted" true (Auditor.errors_total a > 0);
  checkb "counter bumped" true (audit_counter h "tree_structure_violations" > 0);
  let spans =
    List.filter
      (fun (s : Trace.span) -> s.Trace.phase = "audit-error")
      (Trace.spans trace)
  in
  checkb "severity-tagged span" true (spans <> []);
  checkb "span names the check" true
    (List.exists
       (fun (s : Trace.span) ->
         String.length s.Trace.span_label >= 14
         && String.sub s.Trace.span_label 0 14 = "tree_structure")
       spans);
  checkb "zero-duration spans" true
    (List.for_all
       (fun (s : Trace.span) -> s.Trace.span_stop = Some s.Trace.span_start)
       spans);
  (* violation spans sit under the audit tick's root span *)
  checkb "span attributed to an audit op" true
    (List.for_all
       (fun (s : Trace.span) ->
         List.exists
           (fun (r : Trace.span) ->
             r.Trace.span_id = s.Trace.parent && r.Trace.phase = "audit")
           (Trace.spans_of_op trace s.Trace.span_op))
       spans)

let test_broken_successor_detected () =
  let h, _ = star_system ~n:25 ~ps:0.4 () in
  let w = H.world h in
  let arr = World.t_peers w in
  checkb "enough t-peers" true (Array.length arr >= 2);
  Peer.set_succ arr.(0) (Some arr.(0));
  let a = Auditor.create ~interval:10.0 w in
  let snap = Auditor.tick a in
  let ring_errors =
    Checks.errors (Checks.violations snap)
    |> List.filter (fun v -> v.Checks.check = "ring_symmetry")
  in
  checkb "ring error found" true (ring_errors <> []);
  checkb "counter bumped" true (audit_counter h "ring_symmetry_violations" > 0);
  checkb "subject is the broken peer" true
    (List.exists (fun v -> v.Checks.subject = Some arr.(0).Peer.host) ring_errors)

let test_misplaced_item_detected () =
  let h, _ = star_system ~n:30 ~ps:0.5 () in
  let _ = insert_items h ~count:40 in
  let w = H.world h in
  let arr = World.t_peers w in
  checkb "enough t-peers" true (Array.length arr >= 2);
  let victim = arr.(0) in
  (* segment_left is exclusive, so an item routed exactly there is owned
     by the predecessor, never by [victim] *)
  Data_store.insert_routed victim.Peer.store
    ~route_id:(Peer.segment_left victim) ~key:"planted" ~value:"x";
  let snap = Checks.run_all w in
  let placement =
    Checks.violations snap |> List.filter (fun v -> v.Checks.check = "data_placement")
  in
  checkb "misplacement caught" true (placement <> []);
  checkb "is an error" true (Checks.errors placement <> []);
  checkb "to_result fails" true (Result.is_error (Checks.to_result snap))

(* Crash damage is damage: dead ring neighbours and stranded s-peers must
   surface as errors until repair, then disappear. *)
let test_crash_damage_then_repair () =
  let h, _ = star_system ~n:40 ~ps:0.6 () in
  let _ = insert_items h ~count:50 in
  for _ = 1 to 6 do
    H.crash h (H.random_peer h)
  done;
  let before = Checks.run_all (H.world h) in
  checkb "crash damage detected" true (Checks.violations before <> []);
  H.repair h;
  H.run h;
  no_violations (Checks.run_all (H.world h))

(* --- faults at rest: what the final pass adds --- *)

(* Error-severity findings of [check] about [subject]. *)
let flagged snap ~check ~subject =
  List.exists
    (fun v -> v.Checks.check = check && v.Checks.subject = Some subject.Peer.host)
    (Checks.errors (Checks.violations snap))

(* An s-peer whose connect point does not list it as a child: a flood from
   the root never reaches it, online or at rest. *)
let test_one_way_cp_detected () =
  let h, _ = star_system ~n:40 ~ps:0.7 () in
  let w = H.world h in
  let child = List.find (fun p -> Peer.is_s_peer p && p.Peer.cp <> None) (H.peers h) in
  let cp = Option.get child.Peer.cp in
  Peer.set_children cp (List.filter (fun c -> c != child) cp.Peer.children);
  checkb "online pass flags it" true
    (flagged (Checks.run_all w) ~check:"membership" ~subject:child);
  checkb "final pass flags it" true
    (flagged (Checks.final w) ~check:"membership" ~subject:child)

(* An engaged join mutex is a triangle in flight: tolerated online, an
   error at rest. *)
let test_engaged_mutex_final_only () =
  let h, _ = star_system ~n:30 ~ps:0.5 () in
  let w = H.world h in
  let p = (World.t_peers w).(0) in
  Peer.set_joining p true;
  no_violations (Checks.run_all w);
  checkb "final pass flags it" true (flagged (Checks.final w) ~check:"ring_symmetry" ~subject:p)

(* A detached s-peer is walking back to its root online; at rest it is in
   no s-network. *)
let test_detached_speer_final_only () =
  let h, _ = star_system ~n:40 ~ps:0.7 () in
  let w = H.world h in
  let leaf =
    List.find
      (fun p -> Peer.is_s_peer p && p.Peer.cp <> None && p.Peer.children = [])
      (H.peers h)
  in
  Peer.detach_child ~parent:(Option.get leaf.Peer.cp) ~child:leaf;
  no_violations (Checks.run_all w);
  checkb "final pass flags it" true (flagged (Checks.final w) ~check:"membership" ~subject:leaf)

(* --- gauges --- *)

let test_load_balance_gauges () =
  let h, _ = star_system ~n:30 ~ps:0.5 () in
  let _ = insert_items h ~count:100 in
  let snap = Checks.run_all (H.world h) in
  let lb =
    List.find (fun (s : Checks.status) -> s.Checks.name = "load_balance")
      snap.Checks.statuses
  in
  let gauge name =
    match List.assoc_opt name lb.Checks.gauges with
    | Some v -> v
    | None -> Alcotest.fail ("missing gauge " ^ name)
  in
  checkb "items counted" true (gauge "items_total" >= 100.0);
  checkb "max >= mean" true (gauge "items_per_peer_max" >= gauge "items_per_peer_mean");
  let gini = gauge "items_gini" in
  checkb "gini in [0,1)" true (gini >= 0.0 && gini < 1.0)

let test_gini () =
  (* perfectly equal load -> 0; one peer holds everything -> close to 1 *)
  let equal = Checks.run_all in
  ignore equal;
  let h, _ = star_system ~n:20 ~ps:0.5 () in
  let snap = Checks.run_all (H.world h) in
  let lb =
    List.find (fun (s : Checks.status) -> s.Checks.name = "load_balance")
      snap.Checks.statuses
  in
  (* empty system: all sizes zero -> gini 0 by convention *)
  checkb "empty load -> gini 0" true
    (List.assoc "items_gini" lb.Checks.gauges = 0.0)

(* --- scenario integration --- *)

let scenario_system ~seed =
  H.create_star ~seed ~peers:400 ()

(* A scenario run under an online auditor ticking every [interval]
   simulated ms, as the CLI attaches one; [on_audit] sees every tick's
   snapshot. *)
let audited_exec ~interval ?on_audit h ~seed ~script =
  let auditor = Auditor.create ~interval (H.world h) in
  Option.iter (Auditor.set_on_snapshot auditor) on_audit;
  Scenario.exec (Pipeline.attach ~auditor h) ~seed ~script

let test_scenario_clean_audit () =
  let h = scenario_system ~seed:3 in
  let report =
    audited_exec ~interval:100.0 h ~seed:3
      ~script:
        [
          Scenario.Join_many (30, 0.6); Scenario.Insert_items 80; Scenario.Settle;
          Scenario.Lookup_items 60; Scenario.Leave_random; Scenario.Settle;
        ]
  in
  checkb "invariants ok" true (Result.is_ok report.Scenario.invariants);
  match report.Scenario.audit with
  | None -> Alcotest.fail "audit summary missing"
  | Some a ->
    checkb "audited repeatedly" true (a.Scenario.audit_ticks > 1);
    checki "clean scenario, zero violations" 0 a.Scenario.audit_violations;
    checki "timeline row per tick" a.Scenario.audit_ticks
      (List.length a.Scenario.timeline)

let test_scenario_violations_over_time () =
  let h = scenario_system ~seed:5 in
  let report =
    audited_exec ~interval:50.0 h ~seed:5
      ~script:
        [
          Scenario.Join_many (30, 0.5); Scenario.Insert_items 60; Scenario.Settle;
          Scenario.Crash_fraction 0.3;
          (* audited time passes while the damage is still unrepaired *)
          Scenario.Advance 300.0;
          Scenario.Repair; Scenario.Settle;
        ]
  in
  (match report.Scenario.audit with
   | None -> Alcotest.fail "audit summary missing"
   | Some a ->
     checkb "mid-run damage observed" true (a.Scenario.audit_violations > 0);
     checkb "damage window in timeline" true
       (List.exists (fun (_, v) -> v > 0) a.Scenario.timeline);
     (* the last tick ran after repair: timeline ends clean *)
     (match List.rev a.Scenario.timeline with
      | (_, last) :: _ -> checki "final tick clean" 0 last
      | [] -> Alcotest.fail "empty timeline"));
  checkb "final invariants ok after repair" true
    (Result.is_ok report.Scenario.invariants)

(* without an audit interval the report keeps its pre-audit shape *)
let test_scenario_audit_off () =
  let h = scenario_system ~seed:9 in
  let report =
    Scenario.exec (Pipeline.attach h) ~seed:9
      ~script:[ Scenario.Join_many (15, 0.5); Scenario.Insert_items 20; Scenario.Settle ]
  in
  checkb "no audit summary" true (report.Scenario.audit = None);
  checkb "invariants ok" true (Result.is_ok report.Scenario.invariants)

(* The online pass and the final pass agree on quiescent, repaired
   states. *)
let test_agreement_with_offline_checker () =
  let h, _ = star_system ~seed:19 ~n:45 ~ps:0.7 () in
  let _ = insert_items h ~count:80 in
  for _ = 1 to 5 do
    H.crash h (H.random_peer h)
  done;
  H.repair h;
  H.run h;
  ok_invariants h;
  no_violations (Checks.run_all (H.world h))

(* --- the stateful auditor against fresh full scans --- *)

(* One line per snapshot, every field: time and gauges in hex floats. *)
let snapshot_text (snap : Checks.snapshot) =
  let status (st : Checks.status) =
    Printf.sprintf "%s{%s}{%s}" st.Checks.name
      (String.concat ";"
         (List.map
            (fun (v : Checks.violation) ->
              Printf.sprintf "%s/%s/%s/%s" v.Checks.check
                (Checks.severity_to_string v.Checks.severity)
                (match v.Checks.subject with Some h -> string_of_int h | None -> "-")
                v.Checks.detail)
            st.Checks.violations))
      (String.concat ";"
         (List.map (fun (n, v) -> Printf.sprintf "%s=%h" n v) st.Checks.gauges))
  in
  Printf.sprintf "%h|%s\n" snap.Checks.time
    (String.concat "|" (List.map status snap.Checks.statuses))

let gauge_of (snap : Checks.snapshot) check name =
  List.find_map
    (fun (st : Checks.status) ->
      if st.Checks.name = check then List.assoc_opt name st.Checks.gauges else None)
    snap.Checks.statuses

(* Each auditor snapshot must be exactly what a fresh state's full scan
   returns at the same instant. *)
let agree_with_fresh_scan w count snap =
  let fresh = Checks.run_all w in
  if snap <> fresh then
    Alcotest.failf "tick %d differs from a fresh scan:\n%s%s" !count (snapshot_text snap)
      (snapshot_text fresh);
  incr count

(* --- latency_sanity's violation paths --- *)

let latency_details (snap : Checks.snapshot) =
  List.filter_map
    (fun (v : Checks.violation) ->
      if v.Checks.check = "latency_sanity" then Some v.Checks.detail else None)
    (Checks.violations snap)

(* A closed child whose stop is pushed past its closed parent's must be
   reported at every tick while both spans are retained, and never once
   wraparound has evicted them. *)
let test_escape_reported_until_evicted () =
  let trace = Trace.create ~capacity:32 () in
  let h = H.create_star ~seed:11 ~peers:50 ~trace () in
  let w = H.world h in
  let a = Auditor.create ~interval:1.0 w in
  let t0 = World.now w in
  let op = Trace.begin_op trace ~time:t0 ~kind:Trace.Lookup "escape" in
  let child = Trace.begin_span trace ~time:t0 ~op ~tier:"t_network" ~phase:"ring_hop" "hop" in
  Trace.end_span trace ~time:(t0 +. 1.0) child;
  Trace.end_op trace ~time:(t0 +. 2.0) ~op "done";
  Trace.inject_stop trace child (t0 +. 5.0);
  let root = (Option.get (Trace.find trace child)).Trace.parent in
  let expected =
    Printf.sprintf "span %d (t_network/ring_hop) [%g, %g] escapes parent %d [%g, %g]" child
      t0 (t0 +. 5.0) root t0 (t0 +. 2.0)
  in
  let ticks = ref 0 and reported = ref 0 and after = ref 0 in
  Auditor.set_on_snapshot a (fun snap ->
      agree_with_fresh_scan w ticks snap;
      let retained = Trace.find trace child <> None && Trace.find trace root <> None in
      let details = latency_details snap in
      if retained then begin
        Alcotest.(check (list string)) "reported while retained" [ expected ] details;
        incr reported
      end
      else begin
        Alcotest.(check (list string)) "silent once evicted" [] details;
        incr after
      end);
  (* each tick mints its own root span and one per violation, so ticks
     alone wrap the 32-span ring *)
  for _ = 1 to 40 do
    ignore (Auditor.tick a : Checks.snapshot)
  done;
  checkb "reported at several ticks" true (!reported >= 3);
  checkb "evicted at last" true (!after >= 3)

(* Children judged while their root is open, then again once it closes:
   [early] starts before the root, so it escapes either way; [late]
   stops after the root's eventual stop, so it escapes only once the
   root has closed.  [early] also outweighs the root, so the op's
   critical path exceeds its latency — until [held] closes, is clamped to
   the root's stop, and takes over the critical path. *)
let test_children_of_an_open_root () =
  let trace = Trace.create ~capacity:1000 () in
  let h = H.create_star ~seed:12 ~peers:50 ~trace () in
  let w = H.world h in
  let a = Auditor.create ~interval:1.0 w in
  let ticks = ref 0 in
  Auditor.set_on_snapshot a (agree_with_fresh_scan w ticks);
  let t0 = World.now w in
  let op = Trace.begin_op trace ~time:t0 ~kind:Trace.Insert "op" in
  let child ~start label = Trace.begin_span trace ~time:start ~op ~tier:"data" ~phase:label label in
  let early = child ~start:(t0 -. 3.0) "early" in
  let late = child ~start:t0 "late" in
  let held = child ~start:t0 "held" in
  Trace.end_span trace ~time:(t0 +. 1.0) early;
  Trace.end_span trace ~time:(t0 +. 5.0) late;
  let root = (Option.get (Trace.find trace early)).Trace.parent in
  let escape id label start stop pstop =
    Printf.sprintf "span %d (data/%s) [%g, %g] escapes parent %d [%g, %g]" id label start
      stop root t0 pstop
  in
  let tick () = Auditor.tick a in
  let snap = tick () in
  Alcotest.(check (list string)) "open root"
    [ escape early "early" (t0 -. 3.0) (t0 +. 1.0) Float.infinity ]
    (latency_details snap);
  Alcotest.(check (option (float 0.0))) "both closed children counted" (Some 2.0)
    (gauge_of snap "latency_sanity" "spans_checked");
  Trace.end_op trace ~time:(t0 +. 2.0) ~op "done";
  let escapes =
    [
      escape early "early" (t0 -. 3.0) (t0 +. 1.0) (t0 +. 2.0);
      escape late "late" t0 (t0 +. 5.0) (t0 +. 2.0);
    ]
  in
  let over =
    Printf.sprintf "op %d (insert): critical path 4.000 ms exceeds total latency 2.000 ms" op
  in
  Alcotest.(check (list string)) "closed root" (escapes @ [ over ]) (latency_details (tick ()));
  Alcotest.(check (list string)) "still reported" (escapes @ [ over ])
    (latency_details (tick ()));
  Trace.end_span trace ~time:(t0 +. 3.0) held;
  Alcotest.(check (list string)) "held takes the critical path" escapes
    (latency_details (tick ()));
  checki "every tick compared" 4 !ticks

(* Mirrors the benchmark's churn workload shape: crash-and-repair waves
   between writes and reads, then an anti-entropy window. *)
let churn_script ~peers ~initial ~crashes ~inserts ~lookups ~final_lookups =
  let open Scenario in
  [ Join_many (peers, 0.8); Insert_items initial; Settle ]
  @ List.concat (List.init crashes (fun _ -> [ Crash_random; Repair ]))
  @ [ Insert_items inserts; Lookup_items lookups; Settle; Anti_entropy 10000.0;
      Lookup_items final_lookups; Settle ]

let replicated_star ?(base = Config.default) ?latency ~seed ~trace () =
  let config = { base with Config.replication_factor = 2 } in
  H.create_star ~seed ~peers:400 ?latency ~config ~trace ()

(* Full tracing into a 256-span ring, so wraparound evicts spans between
   ticks, roots before their children and parents while children are
   still open.  Slow links (20 ms a hop) keep ops in flight across
   ticks, so children close under open parents. *)
let test_stateful_matches_fresh_scan () =
  let trace = Trace.create ~capacity:256 () in
  let h = replicated_star ~latency:20.0 ~seed:23 ~trace () in
  let w = H.world h in
  let ticks = ref 0 and evicting = ref 0 and judged = ref 0 in
  let report =
    audited_exec ~interval:40.0 h ~seed:23
      ~on_audit:(fun snap ->
        if fst (Trace.span_window trace) > 0 then incr evicting;
        (match gauge_of snap "latency_sanity" "spans_checked" with
         | Some n when n > 0.0 -> incr judged
         | Some _ | None -> ());
        agree_with_fresh_scan w ticks snap)
      ~script:
        (churn_script ~peers:60 ~initial:120 ~crashes:3 ~inserts:40 ~lookups:120
           ~final_lookups:80)
  in
  checkb "invariants ok" true (Result.is_ok report.Scenario.invariants);
  checkb "many ticks compared" true (!ticks > 50);
  checkb "most of them after wraparound" true (!evicting > !ticks / 2);
  checkb "spans were evicted" true (Trace.total_recorded trace > 10 * 256);
  checkb "most ticks judged spans" true (!judged > !ticks / 2)

(* Digest of every snapshot of the churn-100 script (the benchmark's
   small churn case: 100 peers, replication 2, audit every 2000 ms,
   1% op sampling), recorded before the auditor kept state across
   ticks.  Catches a change that moves the stateful and fresh paths
   together. *)
let churn_100_digest = "3851bb6fdb9db8fccfc40aa2c5da1961"

let test_churn_100_snapshots_pinned () =
  let seed = 42000 in
  let trace = Trace.create ~capacity:200_000 ~sample_rate:0.01 ~sample_seed:seed () in
  let h = replicated_star ~base:Config.paper ~seed ~trace () in
  let buf = Buffer.create 4096 in
  let report =
    audited_exec ~interval:2000.0 h ~seed
      ~on_audit:(fun snap -> Buffer.add_string buf (snapshot_text snap))
      ~script:
        (churn_script ~peers:100 ~initial:300 ~crashes:3 ~inserts:100 ~lookups:300
           ~final_lookups:200)
  in
  checkb "invariants ok" true (Result.is_ok report.Scenario.invariants);
  Alcotest.(check string) "snapshot digest" churn_100_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- the one-pass checks against the plain reference --- *)

(* The statuses of [snap] that [Audit_reference] re-implements must be
   exactly the reference's at the same instant: same violations in the
   same order with the same text, same gauge floats (compared as hex). *)
let agree_with_reference ~final w (snap : Checks.snapshot) =
  let ours =
    List.filter
      (fun (st : Checks.status) -> List.mem st.Checks.name Audit_reference.names)
      snap.Checks.statuses
  in
  let text statuses = snapshot_text { snap with Checks.statuses } in
  let expected = text (Audit_reference.run ~final w) in
  if text ours <> expected then
    Alcotest.failf "%s snapshot at %g differs from the reference:\n%s%s"
      (if final then "final" else "online") snap.Checks.time (text ours) expected

(* Every tick of a seeded scenario, then a run of hand-made damage:
   ring pointers at a dead peer, at a wrong peer and at an unregistered
   joiner, an s-peer over the degree cap, ten misplaced items and (with
   replication) ten dropped replica copies; then, past a finger refresh
   point, two corrupted fingers; last, a t-peer whose join mutex is
   engaged.  Each damaged state is compared online and at rest.
   Returns how many ticks saw fresh fingers and the checks that report
   the damage at rest. *)
let compare_with_reference h ~seed ~script =
  let w = H.world h in
  let ticks = ref 0 and fresh = ref 0 in
  let report =
    audited_exec ~interval:60.0 h ~seed
      ~on_audit:(fun snap ->
        incr ticks;
        if gauge_of snap "finger_tables" "fingers_fresh" = Some 1.0 then incr fresh;
        agree_with_reference ~final:false w snap)
      ~script
  in
  checkb "invariants ok" true (Result.is_ok report.Scenario.invariants);
  checkb "ticked repeatedly" true (!ticks > 10);
  let both () =
    agree_with_reference ~final:false w (Checks.run_all w);
    agree_with_reference ~final:true w (Checks.final w)
  in
  both ();
  let arr = World.t_peers w in
  let n = Array.length arr in
  checkb "a ring to damage" true (n >= 4);
  let stray ?(role = Peer.T_peer) host p_id =
    Peer.make ~log:(World.change_log w) ~interner:(World.interner w) ~host ~p_id ~role ~link_capacity:1.0 ()
  in
  let dead = stray (-1) arr.(0).Peer.p_id in
  Peer.set_alive dead false;
  Peer.set_succ arr.(0) (Some dead);
  Peer.set_pred arr.(1) (Some arr.(3));
  Peer.set_succ arr.(2) (Some (stray (-2) (arr.(2).Peer.p_id + 1)));
  for i = 1 to (H.config h).Config.delta + 1 do
    Peer.attach_child ~parent:arr.(n - 1)
      ~child:(stray ~role:Peer.S_peer (-10 - i) arr.(n - 1).Peer.p_id)
  done;
  let victim = arr.(n / 2) in
  for i = 1 to 10 do
    Data_store.insert_routed victim.Peer.store ~route_id:(Peer.segment_left victim)
      ~key:(Printf.sprintf "planted-%d" i) ~value:"x"
  done;
  let stripped = ref 0 in
  World.iter_peers w (fun p ->
      if !stripped < 10 then
        List.iter
          (fun key ->
            if !stripped < 10 then begin
              Data_store.remove p.Peer.replicas ~key;
              incr stripped
            end)
          (Data_store.keys p.Peer.replicas));
  both ();
  World.ensure_fingers w;
  let p = arr.(1) in
  ignore (World.fingers w p : Peer.t option array);
  Peer.set_finger p 3 None;
  Peer.set_finger p (P2p_hashspace.Id_space.bits - 1) (Some arr.(0));
  both ();
  (* a join triangle in flight: online, under-replication is not owed *)
  Peer.set_joining arr.(n / 3) true;
  both ();
  let reported =
    List.sort_uniq compare
      (List.map (fun (v : Checks.violation) -> v.Checks.check)
         (Checks.violations (Checks.final w)))
  in
  (!fresh, reported)

let replicated ?(base = Config.default) r = { base with Config.replication_factor = r }

let churn_mix =
  let open Scenario in
  [ Join_many (60, 0.7); Insert_items 150; Settle; Lookup_items 100; Settle;
    Crash_random; Repair; Leave_random; Settle; Join_many (10, 0.5);
    Crash_fraction 0.1; Repair; Insert_items 50; Lookup_items 100; Settle;
    Anti_entropy 5000.0; Lookup_items 50; Settle ]

let test_reference_star r () =
  let h = H.create_star ~seed:(31 + r) ~peers:400 ~config:(replicated r) () in
  let fresh, reported = compare_with_reference h ~seed:(31 + r) ~script:churn_mix in
  checkb "some ticks saw fresh fingers" true (fresh > 0);
  List.iter
    (fun check -> checkb ("damage reported by " ^ check) true (List.mem check reported))
    ([ "ring_symmetry"; "finger_tables"; "tree_structure"; "data_placement" ]
    @ if r > 0 then [ "replication_factor" ] else [])

let test_reference_transit_stub () =
  let h, _ = Pipeline.build ~seed:41 ~n:120 ~config:(replicated 2) () in
  let _, reported = compare_with_reference h ~seed:41 ~script:churn_mix in
  checkb "under-replication reported" true (List.mem "replication_factor" reported)

let test_reference_bloom () =
  let config = replicated ~base:{ Config.default with Config.bloom_bits_per_key = 8 } 2 in
  let h = H.create_star ~seed:43 ~peers:400 ~config () in
  ignore (compare_with_reference h ~seed:43 ~script:churn_mix : int * string list)

(* The Gini coefficient by hand, over the stores of a four-peer world:
   sizes [0; 0; 0; 4] give 2 (4 * 4) / (4 * 4) - 5 / 4 = 0.75, sizes
   [3; 3; 3; 3] give 2 * 3 (1 + 2 + 3 + 4) / (4 * 12) - 5 / 4 = 0, and
   all-zero sizes 0. *)
let test_gini_by_hand () =
  let h, _ = star_system ~n:4 ~ps:0.5 () in
  let w = H.world h in
  checki "four peers" 4 (World.peer_count w);
  let load_balance = Option.get (Checks.find "load_balance") in
  let gauge name =
    match List.assoc_opt name (Checks.run load_balance w).Checks.gauges with
    | Some v -> v
    | None -> Alcotest.fail ("missing gauge " ^ name)
  in
  let exactly = Alcotest.(check (float 0.0)) in
  exactly "all zero" 0.0 (gauge "items_gini");
  let fill p count =
    for i = 1 to count do
      Data_store.insert p.Peer.store ~key:(Printf.sprintf "k%d-%d" p.Peer.host i) ~value:"v"
    done
  in
  let peers = H.peers h in
  fill (List.nth peers 2) 4;
  exactly "one holder of four" 0.75 (gauge "items_gini");
  exactly "total" 4.0 (gauge "items_total");
  exactly "max" 4.0 (gauge "items_per_peer_max");
  exactly "mean" 1.0 (gauge "items_per_peer_mean");
  List.iter (fun p -> Data_store.clear p.Peer.store; fill p 3) peers;
  exactly "equal load" 0.0 (gauge "items_gini")

(* A tick of the whole catalogue over a 1,000-peer joined world
   allocates under 0.2 words per registered peer (~60 words in all),
   with stale fingers and with fresh ones, both when nothing was logged
   since the state's last tick (the fast path re-verifies nothing) and
   when every check scans in full: the host- and key-indexed tallies
   live in the state.  A full tick is made by alternating two states, so
   each run finds the log restarted by the other; its arrays were grown
   by an earlier run.  A tick over 3,000 stored items and their replicas
   stays under 0.378 words per peer (1.5x the 252 words measured) either
   way, with no closure built per store scanned. *)
let test_tick_allocation () =
  let h, rng = Pipeline.build ~ps:0.8 ~seed:42000 ~n:1000 ~config:(replicated 2) () in
  ignore (Pipeline.replication h);
  let w = H.world h in
  let state = Checks.state () and rival = Checks.state () in
  let tick st =
    let before = Gc.allocated_bytes () in
    ignore (Checks.run_all ~state:st w : Checks.snapshot);
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let scanned c = List.mem c (Checks.full_scans state) in
  let structural = [ "ring_symmetry"; "tree_structure"; "membership" ] in
  let words () =
    ignore (tick state : float);
    let fast = tick state in
    checkb "nothing logged: no structural scan" false (List.exists scanned structural);
    ignore (tick rival : float);
    let full = tick state in
    checkb "log restarted by another state: full scans" true (List.for_all scanned structural);
    (fast, full)
  in
  let budget = 0.2 *. float_of_int (World.peer_count w) in
  let stale_fast, stale_full = words () in
  World.ensure_fingers w;
  let fresh_fast, fresh_full = words () in
  checkb "the fresh full tick checked fingers" true (scanned "finger_tables");
  List.iter
    (fun (what, words) ->
      if words >= budget then
        Alcotest.failf "a %s tick allocates %.0f words, budget %.0f" what words budget)
    [
      ("fast stale-finger", stale_fast);
      ("full stale-finger", stale_full);
      ("fast fresh-finger", fresh_fast);
      ("full fresh-finger", fresh_full);
    ];
  ignore (Pipeline.insert (Pipeline.attach h) ~rng ~count:3000 : P2p_workload.Keys.item array);
  let data_fast, data_full = words () in
  let data_budget = 0.378 *. float_of_int (World.peer_count w) in
  checkb "replica copies tallied" true
    (gauge_of (Checks.run_all ~state w) "replication_factor" "replica_copies" = Some 6000.0);
  List.iter
    (fun (what, words) ->
      if words >= data_budget then
        Alcotest.failf "a %s tick over stored items allocates %.0f words, budget %.0f" what
          words data_budget)
    [ ("fast", data_fast); ("full", data_full) ]

(* --- the run pipeline's drive loop and verdict --- *)

(* Attaching a timeline sampler must not move an audit tick: the same
   workload driven through the same settle/advance calls, once with the
   auditor alone and once with a sampler whose slices (250 ms) do not
   line up with the audit cadence (300 ms), audits at the same instants
   and finds the same violations. *)
let test_sampler_keeps_audit_ticks () =
  let drive ~sampled =
    let config = { Config.default with Config.replication_factor = 2 } in
    let h, rng = Pipeline.build ~ps:0.7 ~seed:5 ~n:80 ~config () in
    let m = Option.get (Pipeline.replication h) in
    let a = Auditor.create ~interval:300.0 (H.world h) in
    let out =
      if sampled then
        { Pipeline.no_outputs with timeline_out = Some "unwritten.jsonl"; timeline_interval = 250.0 }
      else Pipeline.no_outputs
    in
    let p = Pipeline.attach ~auditor:a ~out h in
    let corpus = Pipeline.insert p ~rng ~count:100 in
    Pipeline.lookup p (P2p_workload.Keys.lookup_sequence ~rng ~items:corpus ~count:100);
    Pipeline.anti_entropy p m ~ms:3000.0;
    Pipeline.advance p ~ms:1000.0;
    Auditor.timeline a
  in
  let bare = drive ~sampled:false in
  checkb "ticked inside the windows" true (List.length bare > 10);
  Alcotest.(check (list (pair (float 0.0) int)))
    "same ticks with a sampler" bare (drive ~sampled:true)

(* Every audit violation fails the verdict, a Warning too: a world
   whose only fault is a stale server size table (membership's Warning)
   exits 1. *)
let test_warning_fails_verdict () =
  let h, _ = star_system ~n:30 ~ps:0.6 () in
  let w = H.world h in
  let root = (World.t_peers w).(0) in
  World.set_snet_size w root (World.snet_size w root + 1);
  let a = Auditor.create (H.world h) in
  ignore (Auditor.tick a : Checks.snapshot);
  checki "one violation" 1 (Auditor.violations_total a);
  checki "no error" 0 (Auditor.errors_total a);
  checki "verdict fails" 1
    (Pipeline.finish (Pipeline.attach ~auditor:a h) ~end_state:Pipeline.Audit_only)

(* [p2psim run --peers 200 --ps 0.5 --items 200 --lookups 200] through
   the pipeline, with and without [--ttl 0]: at TTL 0 a flood reaches no
   s-peer past the one it starts at, 89 lookups fail and run's verdict
   is 1; at the default TTL every lookup is found and it is 0. *)
let test_failed_lookups_fail_verdict () =
  let run updates =
    let config = Result.get_ok (Pipeline.config updates) in
    let h, rng = Pipeline.build ~ps:0.5 ~seed:42 ~n:200 ~config () in
    let p = Pipeline.attach h in
    let corpus = Pipeline.insert p ~rng ~count:200 in
    Pipeline.lookup p (P2p_workload.Keys.lookup_sequence ~rng ~items:corpus ~count:200);
    let code = Pipeline.finish ~gate_lookups:true p ~end_state:Pipeline.Check_final in
    (Metrics.lookups_failed (H.metrics h), code)
  in
  let failed, code = run [ ("--ttl", fun c -> { c with Config.default_ttl = 0 }) ] in
  checki "ttl 0: lookups failed" 89 failed;
  checki "ttl 0: verdict" 1 code;
  let failed, code = run [] in
  checki "default ttl: lookups failed" 0 failed;
  checki "default ttl: verdict" 0 code

(* --- incremental ticks: the change log --- *)

(* The checks with a fast path: a tick that runs none of them in full
   re-verified only what the change log named. *)
let fast_tick a = Checks.full_scans (Auditor.checks_state a) = []

(* An auditor on [h] whose every snapshot must equal a fresh state's
   full scan; returns (ticks, fast ticks) counters. *)
let audited_pipeline ?(interval = 60.0) h =
  let w = H.world h in
  let a = Auditor.create ~interval w in
  let ticks = ref 0 and fast = ref 0 in
  Auditor.set_on_snapshot a (fun snap ->
      if fast_tick a then incr fast;
      agree_with_fresh_scan w ticks snap);
  (a, Pipeline.attach ~auditor:a h, ticks, fast)

(* The four [audit --inject] corruptions, made through the setters and
   the stores as the CLI makes them.  [Degree] wires unregistered
   stowaways with negative hosts. *)
let inject w kind =
  let arr = World.t_peers w in
  match kind with
  | `Degree ->
    let root = arr.(0) in
    for i = 1 to w.World.config.Config.delta + 1 - List.length root.Peer.children do
      Peer.attach_child ~parent:root
        ~child:
          (Peer.make ~log:(World.change_log w) ~interner:(World.interner w) ~host:(-i)
             ~p_id:root.Peer.p_id ~role:Peer.S_peer ~link_capacity:10.0 ())
    done
  | `Ring -> Peer.set_succ arr.(0) (Some arr.(0))
  | `Placement ->
    Data_store.insert_routed arr.(0).Peer.store ~route_id:(Peer.segment_left arr.(0))
      ~key:"audit-misplaced" ~value:"x"
  | `Replica_drop ->
    let dropped = ref false in
    World.iter_peers w (fun p ->
        match Data_store.keys p.Peer.replicas with
        | key :: _ when not !dropped ->
          Data_store.remove p.Peer.replicas ~key;
          dropped := true
        | _ -> ())

(* Seeded churn with replication 2 on the transit-stub underlay: joins,
   crash waves and repair, graceful leaves, anti-entropy.  Then, on a
   fresh run of the same seed, each --inject kind mid-run, audited over
   a further stretch of simulated time.  Every tick of every run equals
   a fresh full scan — statuses, violation text and gauge floats — and
   most clean ticks took the fast path. *)
let test_every_tick_equals_fresh_scan_churn seed () =
  let prefix =
    let open Scenario in
    [ Join_many (80, 0.7); Insert_items 150; Settle; Lookup_items 60; Settle ]
  in
  let rest =
    let open Scenario in
    [ Crash_random; Repair; Leave_random; Settle; Join_many (10, 0.5); Settle;
      Crash_fraction 0.1; Repair; Insert_items 40; Lookup_items 60; Settle;
      Anti_entropy 5000.0; Leave_random; Join_t; Join_s; Settle ]
  in
  let start () =
    let h, _ = Pipeline.build ~seed ~n:160 ~config:(replicated 2) () in
    let a, p, ticks, fast = audited_pipeline h in
    ignore (Scenario.exec p ~seed ~script:prefix : Scenario.report);
    (h, a, p, ticks, fast)
  in
  let _, _, p, ticks, fast = start () in
  ignore (Scenario.exec p ~seed:(seed + 1) ~script:rest : Scenario.report);
  checkb "ticked repeatedly" true (!ticks > 20);
  checkb "most clean ticks took the fast path" true (2 * !fast > !ticks);
  (* the damaged worlds only age: protocol work would route to the
     stowaways, which have no host *)
  List.iter
    (fun kind ->
      let h, a, p, ticks, _ = start () in
      let before = Auditor.violations_total a and seen = !ticks in
      inject (H.world h) kind;
      ignore (Auditor.tick a : Checks.snapshot);
      checkb "injected damage reported at the next tick" true
        (Auditor.violations_total a > before);
      Pipeline.advance p ~ms:400.0;
      checkb "ticked on" true (!ticks > seen + 3))
    [ `Degree; `Ring; `Placement; `Replica_drop ]

(* One corruption through each audited setter, through a store, through
   the server's size table and by an undetected crash, made between two
   ticks of a clean world whose ticks take the fast path: the very next
   tick reports it — a violation, or a moved gauge
   for the mutexes, which are in-flight state online — exactly as a
   fresh full scan does. *)
let test_setter_corruption_next_tick () =
  let corruptions =
    let s_peer w =
      let found = ref None in
      World.iter_peers w (fun p ->
          if !found = None && Peer.is_s_peer p && p.Peer.children = [] then found := Some p);
      Option.get !found
    in
    let root w i = (World.t_peers w).(i) in
    let parent w = Option.get (s_peer w).Peer.cp in
    [ ("p_id", `Violation, fun w -> let p = s_peer w in Peer.set_p_id p (p.Peer.p_id + 1));
      ("role", `Violation, fun w -> Peer.set_role (s_peer w) Peer.T_peer);
      ("alive", `Violation, fun w -> Peer.set_alive (s_peer w) false);
      ("succ", `Violation, fun w -> Peer.set_succ (root w 1) (Some (root w 3)));
      ("pred", `Violation, fun w -> Peer.set_pred (root w 2) (Some (root w 0)));
      ("t_home", `Violation, fun w -> Peer.set_t_home (s_peer w) (Some (root w 0)));
      ("cp", `Violation, fun w -> Peer.set_cp (s_peer w) (Some (root w 0)));
      ("children (dropped)", `Violation, fun w -> Peer.set_children (parent w) []);
      ( "children (added)",
        `Violation,
        fun w -> Peer.set_children (root w 0) (s_peer w :: (root w 0).Peer.children) );
      (* unregistered with its ring pointers left behind: the ring merge
         logs the neighbours it leaves facing each other *)
      ("crash", `Violation, fun w -> Hybrid_p2p.Failure.crash w (root w 1));
      ("joining", `Gauge, fun w -> Peer.set_joining (root w 1) true);
      ("leaving", `Gauge, fun w -> Peer.set_leaving (root w 1) true);
      ( "join_queue",
        `Gauge,
        fun w ->
          Peer.set_join_queue (root w 1) [ (fun () -> ()) ] );
      ( "fingers",
        `Violation,
        fun w ->
          Peer.set_fingers (root w 1) (Array.make P2p_hashspace.Id_space.bits None) );
      ("finger", `Violation, fun w -> Peer.set_finger (root w 1) 3 (Some (root w 1)));
      ( "size table",
        `Violation,
        fun w -> World.set_snet_size w (root w 0) (World.snet_size w (root w 0) + 1) );
      ( "store",
        `Gauge,
        fun w -> Data_store.insert (s_peer w).Peer.store ~key:"planted" ~value:"x" ) ]
  in
  List.iter
    (fun (name, kind, corrupt) ->
      let h, _ = Pipeline.build ~seed:77 ~n:120 ~config:Config.default () in
      ignore (H.grow h ~count:100 ~s_fraction:0.7 : Peer.t array);
      let w = H.world h in
      World.ensure_fingers w;
      let a, _, _, _ = audited_pipeline h in
      ignore (Auditor.tick a : Checks.snapshot);
      let clean = Auditor.tick a in
      checkb (name ^ ": clean tick on the fast path") true (fast_tick a);
      no_violations clean;
      corrupt w;
      let snap = Auditor.tick a in
      match kind with
      | `Violation ->
        checkb (name ^ ": reported at the next tick") true (Checks.violations snap <> [])
      | `Gauge ->
        checkb (name ^ ": gauges moved at the next tick") true
          (List.map (fun (s : Checks.status) -> s.Checks.gauges) snap.Checks.statuses
          <> List.map (fun (s : Checks.status) -> s.Checks.gauges) clean.Checks.statuses))
    corruptions

(* The membership directory changes without any setter: a registered
   s-peer dropped from it, and an attached, unregistered one entered
   into it.  Either leaves the server's size table off by one, reported
   at the next tick exactly as a fresh scan reports it. *)
let test_directory_change_next_tick () =
  let world () =
    let h, _ = Pipeline.build ~seed:78 ~n:120 ~config:Config.default () in
    ignore (H.grow h ~count:100 ~s_fraction:0.7 : Peer.t array);
    let a, _, _, _ = audited_pipeline h in
    (h, a)
  in
  let leaf w =
    let found = ref None in
    World.iter_peers w (fun p ->
        if !found = None && Peer.is_s_peer p && p.Peer.children = [] then found := Some p);
    Option.get !found
  in
  let h, a = world () in
  let w = H.world h in
  ignore (Auditor.tick a : Checks.snapshot);
  no_violations (Auditor.tick a);
  World.unregister w (leaf w);
  checkb "unregistered: reported at the next tick" true
    (Checks.violations (Auditor.tick a) <> []);
  let h, a = world () in
  let w = H.world h in
  let stowaway =
    Peer.make ~log:(World.change_log w) ~interner:(World.interner w) ~host:(H.fresh_host h)
      ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0 ()
  in
  Peer.attach_child ~parent:(leaf w) ~child:stowaway;
  ignore (Auditor.tick a : Checks.snapshot);
  no_violations (Auditor.tick a);
  checkb "a clean fast tick" true (fast_tick a);
  World.register w stowaway;
  checkb "registered: reported at the next tick" true
    (Checks.violations (Auditor.tick a) <> [])

(* A tick after one s-join, and one after one t-join, re-verifies a
   number of peers that does not grow with the world: the same bound
   holds at 1,000 and at 4,000 peers, and no check scans in full. *)
let test_tick_cost_after_one_join () =
  let cost n =
    let h, _ = Pipeline.build ~seed:42 ~n ~config:(replicated 2) () in
    ignore (H.grow h ~count:n ~s_fraction:0.8 : Peer.t array);
    let w = H.world h in
    let a = Auditor.create ~interval:1000.0 w in
    ignore (Auditor.tick a : Checks.snapshot);
    ignore (Auditor.tick a : Checks.snapshot);
    let after role =
      ignore (H.join h ~host:(H.fresh_host h) ~role () : Peer.t);
      H.run h;
      no_violations (Auditor.tick a);
      checkb "no check scanned in full" true (fast_tick a);
      Checks.reverified (Auditor.checks_state a)
    in
    let s_join = after Peer.S_peer in
    let t_join = after Peer.T_peer in
    (s_join, t_join)
  in
  let bound = 60 in
  List.iter
    (fun n ->
      let s_join, t_join = cost n in
      if s_join > bound || t_join > bound then
        Alcotest.failf "%d peers: a tick re-verified %d peers after an s-join, %d after a \
                        t-join; bound %d"
          n s_join t_join bound)
    [ 1000; 4000 ]

let suite =
  [
    Alcotest.test_case "catalogue: clean system" `Quick test_clean_system;
    Alcotest.test_case "catalogue: names/select" `Quick test_catalogue_names;
    Alcotest.test_case "auditor: clean under churn" `Quick test_online_clean_churn;
    Alcotest.test_case "auditor: degree corruption" `Quick test_degree_corruption_detected;
    Alcotest.test_case "checks: broken successor" `Quick test_broken_successor_detected;
    Alcotest.test_case "checks: misplaced item" `Quick test_misplaced_item_detected;
    Alcotest.test_case "checks: crash then repair" `Quick test_crash_damage_then_repair;
    Alcotest.test_case "checks: one-way cp pointer" `Quick test_one_way_cp_detected;
    Alcotest.test_case "final: engaged join mutex" `Quick test_engaged_mutex_final_only;
    Alcotest.test_case "final: detached s-peer" `Quick test_detached_speer_final_only;
    Alcotest.test_case "gauges: load balance" `Quick test_load_balance_gauges;
    Alcotest.test_case "gauges: empty gini" `Quick test_gini;
    Alcotest.test_case "gauges: gini by hand" `Quick test_gini_by_hand;
    Alcotest.test_case "reference: star, r=0" `Quick (test_reference_star 0);
    Alcotest.test_case "reference: star, r=2" `Quick (test_reference_star 2);
    Alcotest.test_case "reference: transit-stub, r=2" `Quick test_reference_transit_stub;
    Alcotest.test_case "reference: bloom summaries" `Quick test_reference_bloom;
    Alcotest.test_case "cost: tick allocation per peer" `Quick test_tick_allocation;
    Alcotest.test_case "cost: one join re-verifies a bounded set" `Quick
      test_tick_cost_after_one_join;
    Alcotest.test_case "change log: churn ticks equal fresh scans, seed 42000" `Quick
      (test_every_tick_equals_fresh_scan_churn 42000);
    Alcotest.test_case "change log: churn ticks equal fresh scans, seed 42010" `Quick
      (test_every_tick_equals_fresh_scan_churn 42010);
    Alcotest.test_case "change log: churn ticks equal fresh scans, seed 42020" `Quick
      (test_every_tick_equals_fresh_scan_churn 42020);
    Alcotest.test_case "change log: a setter's corruption shows at the next tick" `Quick
      test_setter_corruption_next_tick;
    Alcotest.test_case "change log: a directory change shows at the next tick" `Quick
      test_directory_change_next_tick;
    Alcotest.test_case "scenario: clean audited run" `Quick test_scenario_clean_audit;
    Alcotest.test_case "scenario: violations over time" `Quick
      test_scenario_violations_over_time;
    Alcotest.test_case "scenario: audit off" `Quick test_scenario_audit_off;
    Alcotest.test_case "offline/online agreement" `Quick
      test_agreement_with_offline_checker;
    Alcotest.test_case "auditor: every tick equals a fresh scan" `Quick
      test_stateful_matches_fresh_scan;
    Alcotest.test_case "auditor: churn-100 snapshots pinned" `Quick
      test_churn_100_snapshots_pinned;
    Alcotest.test_case "latency_sanity: escape reported until evicted" `Quick
      test_escape_reported_until_evicted;
    Alcotest.test_case "latency_sanity: children of an open root" `Quick
      test_children_of_an_open_root;
    Alcotest.test_case "pipeline: a sampler keeps the audit ticks" `Quick
      test_sampler_keeps_audit_ticks;
    Alcotest.test_case "pipeline: a warning fails the verdict" `Quick
      test_warning_fails_verdict;
    Alcotest.test_case "pipeline: failed lookups fail run's verdict" `Quick
      test_failed_lookups_fail_verdict;
  ]
