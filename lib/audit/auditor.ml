module World = Hybrid_p2p.World
module Engine = P2p_sim.Engine
module Trace = P2p_sim.Trace
module Registry = P2p_obs.Registry
module Metrics = P2p_net.Metrics

(* One check's registry rows.  Its health gauges are cached on first
   sight, in first-seen order, so a tick resolves them without a
   registry lookup. *)
type check_rows = {
  violations_c : Registry.counter;
  last_run_g : Registry.gauge;
  mutable health : (string * Registry.gauge) list;
}

type t = {
  world : World.t;
  interval : float;
  checks : Checks.check list;
  state : Checks.state;
  ticks_c : Registry.counter;
  rows : check_rows list;  (* aligned with [checks] *)
  mutable tick_count : int;
  mutable violations_total : int;
  mutable errors_total : int;
  mutable last_snapshot : Checks.snapshot option;
  mutable timeline_rev : (float * int) list;
  mutable next_due : float;
  mutable on_violation :
    (time:float -> check:string -> severity:string -> detail:string -> unit)
    option;
  mutable on_snapshot : (Checks.snapshot -> unit) option;
}

let subsystem = "audit"

let create ?(interval = 250.0) ?(checks = Checks.all) world =
  if interval <= 0.0 then invalid_arg "Auditor.create: interval must be positive";
  let reg = Metrics.registry world.World.metrics in
  let ticks_c = Registry.counter reg ~subsystem ~name:"ticks" in
  let violations_c =
    List.map
      (fun c -> Registry.counter reg ~subsystem ~name:(Checks.check_name c ^ "_violations"))
      checks
  in
  let rows =
    List.map2
      (fun c violations_c ->
        {
          violations_c;
          last_run_g =
            Registry.gauge reg ~subsystem ~name:(Checks.check_name c ^ "_last_run_ms");
          health = [];
        })
      checks violations_c
  in
  {
    world;
    interval;
    checks;
    state = Checks.state ();
    ticks_c;
    rows;
    tick_count = 0;
    violations_total = 0;
    errors_total = 0;
    last_snapshot = None;
    timeline_rev = [];
    next_due = Engine.now world.World.engine +. interval;
    on_violation = None;
    on_snapshot = None;
  }

let set_on_violation t f = t.on_violation <- Some f

let set_on_snapshot t f = t.on_snapshot <- Some f

let severity_tag v =
  match v.Checks.severity with
  | Checks.Error -> "audit-error"
  | Checks.Warning -> "audit-warning"

let health_gauge reg rows name =
  match List.find_opt (fun (n, _) -> String.equal n name) rows.health with
  | Some (_, g) -> g
  | None ->
    let g = Registry.gauge reg ~subsystem ~name in
    rows.health <- rows.health @ [ (name, g) ];
    g

let tick t =
  let w = t.world in
  let time = World.now w in
  let trace = World.trace w in
  let reg = Metrics.registry w.World.metrics in
  let op =
    Trace.begin_op trace ~time ~kind:(Trace.Custom "audit")
      (Printf.sprintf "tick %d" t.tick_count)
  in
  Checks.time_checks t.state (Engine.profiling w.World.engine);
  let snap = Checks.run_all ~state:t.state ~checks:t.checks w in
  Option.iter (fun f -> f snap) t.on_snapshot;
  let tick_violations = ref 0 in
  List.iter2
    (fun rows (s : Checks.status) ->
      if s.Checks.violations <> [] then
        Registry.incr ~by:(List.length s.Checks.violations) rows.violations_c;
      Registry.set rows.last_run_g time;
      List.iter (fun (gname, v) -> Registry.set (health_gauge reg rows gname) v) s.Checks.gauges;
      List.iter
        (fun (v : Checks.violation) ->
          incr tick_violations;
          t.violations_total <- t.violations_total + 1;
          if v.Checks.severity = Checks.Error then t.errors_total <- t.errors_total + 1;
          Trace.mark_span trace ~time ~op ~tier:"audit" ~phase:(severity_tag v)
            ?src:v.Checks.subject
            (Printf.sprintf "%s: %s" v.Checks.check v.Checks.detail);
          match t.on_violation with
          | None -> ()
          | Some f ->
            f ~time ~check:v.Checks.check ~severity:(severity_tag v)
              ~detail:v.Checks.detail)
        s.Checks.violations)
    t.rows snap.Checks.statuses;
  Registry.incr t.ticks_c;
  t.tick_count <- t.tick_count + 1;
  t.last_snapshot <- Some snap;
  t.timeline_rev <- (time, !tick_violations) :: t.timeline_rev;
  t.next_due <- time +. t.interval;
  Trace.end_op trace ~time ~op
    "violations=%d" !tick_violations;
  snap

let next_due t = t.next_due

let due t = Engine.now t.world.World.engine >= t.next_due

let ticks t = t.tick_count

let violations_total t = t.violations_total

let errors_total t = t.errors_total

let last_snapshot t = t.last_snapshot

let timeline t = List.rev t.timeline_rev

let checks_state t = t.state

let check_times t = Checks.check_times t.state
