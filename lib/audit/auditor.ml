module World = Hybrid_p2p.World
module Engine = P2p_sim.Engine
module Trace = P2p_sim.Trace
module Registry = P2p_obs.Registry
module Metrics = P2p_net.Metrics

type t = {
  world : World.t;
  interval : float;
  checks : Checks.check list;
  ticks_c : Registry.counter;
  violation_counters : (string * Registry.counter) list;  (* check -> counter *)
  freshness_gauges : (string * Registry.gauge) list;  (* check -> last-run gauge *)
  mutable tick_count : int;
  mutable violations_total : int;
  mutable errors_total : int;
  mutable first_error : Checks.violation option;
  mutable last_snapshot : Checks.snapshot option;
  mutable timeline_rev : (float * int) list;
  mutable next_due : float;
  mutable ticked_at : float;  (* clock value of the last tick; nan = never *)
  mutable timer : Engine.handle option;
  mutable on_violation :
    (time:float -> check:string -> severity:string -> detail:string -> unit)
    option;
}

let subsystem = "audit"

let create ?(interval = 250.0) ?(checks = Checks.all) world =
  if interval <= 0.0 then invalid_arg "Auditor.create: interval must be positive";
  let reg = Metrics.registry world.World.metrics in
  let ticks_c = Registry.counter reg ~subsystem ~name:"ticks" in
  let violation_counters =
    List.map
      (fun c ->
        let name = Checks.check_name c in
        (name, Registry.counter reg ~subsystem ~name:(name ^ "_violations")))
      checks
  in
  let freshness_gauges =
    List.map
      (fun c ->
        let name = Checks.check_name c in
        (name, Registry.gauge reg ~subsystem ~name:(name ^ "_last_run_ms")))
      checks
  in
  {
    world;
    interval;
    checks;
    ticks_c;
    violation_counters;
    freshness_gauges;
    tick_count = 0;
    violations_total = 0;
    errors_total = 0;
    first_error = None;
    last_snapshot = None;
    timeline_rev = [];
    next_due = Engine.now world.World.engine +. interval;
    ticked_at = Float.nan;
    timer = None;
    on_violation = None;
  }

let set_on_violation t f = t.on_violation <- Some f

let world t = t.world

let interval t = t.interval

let severity_tag v =
  match v.Checks.severity with
  | Checks.Error -> "audit-error"
  | Checks.Warning -> "audit-warning"

let tick t =
  let w = t.world in
  let time = World.now w in
  let trace = World.trace w in
  let reg = Metrics.registry w.World.metrics in
  let op =
    Trace.begin_op trace ~time ~kind:(Trace.Custom "audit")
      (Printf.sprintf "tick %d" t.tick_count)
  in
  let snap = Checks.run_all ~checks:t.checks w in
  let tick_violations = ref 0 in
  List.iter
    (fun (s : Checks.status) ->
      (match List.assoc_opt s.Checks.name t.violation_counters with
       | Some c when s.Checks.violations <> [] ->
         Registry.incr ~by:(List.length s.Checks.violations) c
       | _ -> ());
      (match List.assoc_opt s.Checks.name t.freshness_gauges with
       | Some g -> Registry.set g time
       | None -> ());
      List.iter
        (fun (gname, v) ->
          Registry.set (Registry.gauge reg ~subsystem ~name:gname) v)
        s.Checks.gauges;
      List.iter
        (fun (v : Checks.violation) ->
          incr tick_violations;
          t.violations_total <- t.violations_total + 1;
          if v.Checks.severity = Checks.Error then begin
            t.errors_total <- t.errors_total + 1;
            if t.first_error = None then t.first_error <- Some v
          end;
          Trace.mark_span trace ~time ~op ~tier:"audit" ~phase:(severity_tag v)
            ?src:v.Checks.subject
            (Printf.sprintf "%s: %s" v.Checks.check v.Checks.detail);
          match t.on_violation with
          | None -> ()
          | Some f ->
            f ~time ~check:v.Checks.check ~severity:(severity_tag v)
              ~detail:v.Checks.detail)
        s.Checks.violations)
    snap.Checks.statuses;
  Registry.incr t.ticks_c;
  t.tick_count <- t.tick_count + 1;
  t.last_snapshot <- Some snap;
  t.timeline_rev <- (time, !tick_violations) :: t.timeline_rev;
  t.next_due <- time +. t.interval;
  t.ticked_at <- time;
  Trace.end_op trace ~time ~op
    "violations=%d" !tick_violations;
  snap

let due t = Engine.now t.world.World.engine >= t.next_due

let settle t =
  let engine = t.world.World.engine in
  let progressed = ref false in
  let continue = ref true in
  while !continue do
    if due t then ignore (tick t);
    if Engine.step engine then progressed := true else continue := false
  done;
  (* Close the window: audit the drained state unless the last tick
     already saw it. *)
  if !progressed || Float.is_nan t.ticked_at then ignore (tick t)

let advance t ~ms =
  if ms < 0.0 then invalid_arg "Auditor.advance: negative duration";
  let engine = t.world.World.engine in
  let target = Engine.now engine +. ms in
  let continue = ref true in
  while !continue do
    if t.next_due < target then begin
      Engine.run_until engine ~time:t.next_due;
      ignore (tick t)
    end
    else begin
      Engine.run_until engine ~time:target;
      continue := false
    end
  done

let rec arm t =
  let engine = t.world.World.engine in
  let delay = Float.max 0.0 (t.next_due -. Engine.now engine) in
  let handle =
    Engine.schedule ~label:"audit" engine ~delay (fun () ->
        ignore (tick t);
        if t.timer <> None then arm t)
  in
  t.timer <- Some handle

let start t = if t.timer = None then arm t

let stop t =
  match t.timer with
  | None -> ()
  | Some h ->
    Engine.cancel h;
    t.timer <- None

let ticks t = t.tick_count

let violations_total t = t.violations_total

let errors_total t = t.errors_total

let last_snapshot t = t.last_snapshot

let timeline t = List.rev t.timeline_rev

let result t =
  match t.first_error with
  | None -> Ok ()
  | Some v ->
    Error (Printf.sprintf "%s: %s" v.Checks.check v.Checks.detail)
