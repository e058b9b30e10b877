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
  let h, _ = star_system ~n:30 ~ps:0.6 () in
  let a = Auditor.create ~interval:20.0 (H.world h) in
  let _ = H.grow h ~count:15 ~s_fraction:0.5 in
  Auditor.settle a;
  let keys = insert_items h ~count:60 in
  Auditor.settle a;
  List.iter
    (fun key -> ignore (lookup_sync h ~from:(H.random_peer h) ~key () : _))
    keys;
  Auditor.settle a;
  (* a few graceful leaves, drained through the auditor *)
  for _ = 1 to 4 do
    H.leave h (H.random_peer h) ();
    Auditor.settle a
  done;
  checkb "ticked repeatedly" true (Auditor.ticks a > 3);
  checki "no violations under graceful churn" 0 (Auditor.violations_total a);
  checkb "result ok" true (Result.is_ok (Auditor.result a))

(* --- deliberate corruption: the acceptance scenario --- *)

(* Force an s-peer over the degree cap while the auditor's periodic timer
   is armed: the next tick must emit a severity-tagged span and
   bump the matching audit/* counter. *)
let test_degree_corruption_detected () =
  let trace = Trace.create ~capacity:50_000 () in
  let h = H.create_star ~seed:7 ~peers:300 ~trace () in
  let _ = H.grow h ~count:40 ~s_fraction:0.6 in
  let a = Auditor.create ~interval:50.0 (H.world h) in
  Auditor.start a;
  checki "no tick yet" 0 (Auditor.ticks a);
  checki "counter starts at zero" 0 (audit_counter h "tree_structure_violations");
  (* over-cap wiring: stowaway children on the first root *)
  let root = (World.t_peers (H.world h)).(0) in
  let delta = (H.config h).Config.delta in
  for i = 1 to delta + 1 do
    let child =
      Peer.make ~host:(-i) ~p_id:root.Peer.p_id ~role:Peer.S_peer ~link_capacity:1.0 ()
    in
    Peer.attach_child ~parent:root ~child
  done;
  checkb "degree now over cap" true (Peer.tree_degree root > delta);
  H.run_for h 120.0;
  Auditor.stop a;
  checkb "timer ticked" true (Auditor.ticks a >= 2);
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
       spans);
  checkb "result reports first error" true (Result.is_error (Auditor.result a))

let test_broken_successor_detected () =
  let h, _ = star_system ~n:25 ~ps:0.4 () in
  let w = H.world h in
  let arr = World.t_peers w in
  checkb "enough t-peers" true (Array.length arr >= 2);
  arr.(0).Peer.succ <- Some arr.(0);
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

let test_scenario_clean_audit () =
  let h = scenario_system ~seed:3 in
  let report =
    Scenario.run ~audit_interval:100.0 h ~seed:3
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
    Scenario.run ~audit_interval:50.0 h ~seed:5
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
    Scenario.run h ~seed:9
      ~script:[ Scenario.Join_many (15, 0.5); Scenario.Insert_items 20; Scenario.Settle ]
  in
  checkb "no audit summary" true (report.Scenario.audit = None);
  checkb "invariants ok" true (Result.is_ok report.Scenario.invariants)

(* The online checks and the strict offline checker agree on quiescent,
   repaired states. *)
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

let suite =
  [
    Alcotest.test_case "catalogue: clean system" `Quick test_clean_system;
    Alcotest.test_case "catalogue: names/select" `Quick test_catalogue_names;
    Alcotest.test_case "auditor: clean under churn" `Quick test_online_clean_churn;
    Alcotest.test_case "auditor: degree corruption" `Quick test_degree_corruption_detected;
    Alcotest.test_case "checks: broken successor" `Quick test_broken_successor_detected;
    Alcotest.test_case "checks: misplaced item" `Quick test_misplaced_item_detected;
    Alcotest.test_case "checks: crash then repair" `Quick test_crash_damage_then_repair;
    Alcotest.test_case "gauges: load balance" `Quick test_load_balance_gauges;
    Alcotest.test_case "gauges: empty gini" `Quick test_gini;
    Alcotest.test_case "scenario: clean audited run" `Quick test_scenario_clean_audit;
    Alcotest.test_case "scenario: violations over time" `Quick
      test_scenario_violations_over_time;
    Alcotest.test_case "scenario: audit off" `Quick test_scenario_audit_off;
    Alcotest.test_case "offline/online agreement" `Quick
      test_agreement_with_offline_checker;
  ]
