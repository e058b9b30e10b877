module H = Hybrid_p2p.Hybrid
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config
module Auditor = P2p_audit.Auditor
module Checks = P2p_audit.Checks
module Manager = P2p_replication.Manager
module Engine = P2p_sim.Engine
module Rng = P2p_sim.Rng
module Trace = P2p_sim.Trace
module Metrics = P2p_net.Metrics
module Transit_stub = P2p_topology.Transit_stub
module Keys = P2p_workload.Keys
module Export = P2p_obs.Export
module Sampler = P2p_obs.Sampler
module Gc_stats = P2p_obs.Gc_stats
module Flight_recorder = P2p_obs.Flight_recorder

(* --- one build --- *)

let config updates =
  List.fold_left
    (fun acc (flag, update) ->
      Result.bind acc (fun c ->
          let c = update c in
          match Config.validate c with
          | Ok () -> Ok c
          | Error e -> Error (`Msg (Printf.sprintf "option '%s': %s" flag e))))
    (Ok Config.default) updates

(* transit-stub parameters that give at least n nodes *)
let topology_for n =
  let rec fit stub_nodes =
    let p =
      {
        Transit_stub.default_params with
        Transit_stub.transit_domains = 3;
        transit_nodes = 3;
        stub_domains_per_node = 4;
        stub_nodes;
      }
    in
    if Transit_stub.node_count p >= n then p else fit (stub_nodes + 1)
  in
  fit 3

let build ?trace ?(profile = false) ?ps ~seed ~n ~config () =
  let topo = Transit_stub.generate ~rng:(Rng.create (seed + 1)) (topology_for n) in
  let routing = P2p_topology.Routing.create topo.Transit_stub.graph in
  let h = H.create ~seed ~routing ~config ?trace () in
  if profile then Engine.enable_profiling (H.engine h);
  let rng = Rng.create (seed + 2) in
  Option.iter
    (fun ps ->
      let roles =
        Array.init n (fun _ -> if Rng.bernoulli rng ps then Peer.S_peer else Peer.T_peer)
      in
      roles.(0) <- Peer.T_peer;
      Array.iteri
        (fun host role ->
          ignore (H.join h ~host ~role () : Peer.t);
          H.run h)
        roles)
    ps;
  (h, rng)

let replication h =
  if (H.config h).Config.replication_factor > 0 then Some (Manager.install (H.world h))
  else None

(* --- observers --- *)

type outputs = {
  trace_out : string option;
  metrics_out : string option;
  profile : bool;
  timeline_out : string option;
  timeline_interval : float;
  slos : string list;
  dump_dir : string option;
  dump_on_exit : bool;
  gc_gauges : bool;
}

let no_outputs =
  { trace_out = None; metrics_out = None; profile = false;
    timeline_out = None; timeline_interval = 50.0; slos = []; dump_dir = None;
    dump_on_exit = false; gc_gauges = false }

type t = {
  h : H.t;
  auditor : Auditor.t option;
  sampler : Sampler.t option;
  recorder : (Flight_recorder.t * string) option;  (* and its dump directory *)
  gc : Gc_stats.t option;
  mutable replication : Manager.t option;
  out : outputs;
}

let attach ?auditor ?replication ?(out = no_outputs) h =
  let reg = Metrics.registry (H.metrics h) in
  let gc = if out.gc_gauges then Some (Gc_stats.create reg) else None in
  (* The always-on flight recorder: fed 100% of op completions by the
     trace listener (independent of --trace-sample) and every audit
     violation; dumped when something trips. *)
  let trace = H.trace h in
  let recorder =
    match out.dump_dir with
    | Some dir when Trace.enabled trace || auditor <> None ->
      let fr = Flight_recorder.create ~capacity:8192 () in
      if Trace.enabled trace then Trace.on_op_complete trace (Flight_recorder.observe fr);
      Option.iter
        (fun a ->
          Auditor.set_on_violation a (fun ~time ~check ~severity ~detail ->
              Flight_recorder.record_audit fr ~at:time ~check ~severity ~detail))
        auditor;
      Some (fr, dir)
    | Some _ | None -> None
  in
  let sampler =
    Option.map
      (fun _ ->
        Sampler.create ~interval:out.timeline_interval
          ~on_sample:(fun () ->
            Option.iter Gc_stats.update gc;
            P2p_obs.Engine_stats.record reg (H.engine h))
          reg)
      out.timeline_out
  in
  { h; auditor; sampler; recorder; gc; replication; out }

let install_replication t =
  t.replication <- replication t.h;
  t.replication

let hybrid t = t.h

let auditor t = t.auditor

(* --- one drive loop --- *)

let tick a = ignore (Auditor.tick a : Checks.snapshot)

let settle t =
  match (t.auditor, t.sampler) with
  | None, None -> H.run t.h
  | auditor, sampler ->
    let engine = H.engine t.h in
    let poll () =
      match sampler with Some s -> Sampler.poll s ~now:(Engine.now engine) | None -> ()
    in
    let progressed = ref false and continue = ref true in
    while !continue do
      poll ();
      (match auditor with Some a when Auditor.due a -> tick a | Some _ | None -> ());
      if Engine.step engine then progressed := true else continue := false
    done;
    poll ();
    (* close the window: audit the drained state unless the last tick
       already saw it *)
    match auditor with
    | Some a when !progressed || Auditor.ticks a = 0 -> tick a
    | Some _ | None -> ()

let advance t ~ms =
  match (t.auditor, t.sampler) with
  | None, None -> H.run_for t.h ms
  | auditor, sampler ->
    if ms < 0.0 then invalid_arg "Pipeline.advance: negative duration";
    let engine = H.engine t.h in
    let target = Engine.now engine +. ms in
    (* sampler slices step by the cadence from the window's start, the
       last one clipped to the target *)
    let slice_after from =
      match sampler with
      | Some _ when from < target -> Float.min target (from +. t.out.timeline_interval)
      | Some _ | None -> Float.infinity
    in
    let rec go next_poll =
      let audit_at =
        match auditor with
        | Some a when Auditor.next_due a < target -> Auditor.next_due a
        | Some _ | None -> Float.infinity
      in
      let stop = Float.min audit_at next_poll in
      Engine.run_until engine ~time:(Float.min stop target);
      if stop < Float.infinity then begin
        if stop = next_poll then Option.iter (fun s -> Sampler.poll s ~now:stop) sampler;
        if stop = audit_at then Option.iter tick auditor;
        go (if stop = next_poll then slice_after stop else next_poll)
      end
    in
    go (slice_after (Engine.now engine))

let anti_entropy t m ~ms =
  (* the periodic timer keeps the queue non-empty, so bracket it around
     a bounded advance rather than a drain *)
  Manager.start m;
  advance t ~ms;
  Manager.stop m;
  settle t

(* --- one workload --- *)

let insert t ~rng ~count =
  let corpus = Keys.generate ~rng ~count ~categories:4 in
  Array.iter
    (fun it -> H.insert t.h ~from:(H.random_peer t.h) ~key:it.Keys.key ~value:it.Keys.value ())
    corpus;
  settle t;
  corpus

let lookup t items =
  Array.iter
    (fun it -> H.lookup t.h ~from:(H.random_peer t.h) ~key:it.Keys.key ~on_result:ignore ())
    items;
  settle t

(* --- one verdict --- *)

type end_state = Check_final | Reported of (unit, string) result | Audit_only

let print_audit_summary a =
  Printf.printf "audit: %d ticks, %d violations (%d errors)\n" (Auditor.ticks a)
    (Auditor.violations_total a) (Auditor.errors_total a);
  Option.iter
    (fun snap ->
      List.iter
        (fun (s : Checks.status) ->
          let vs = s.Checks.violations in
          let n = List.length vs in
          Printf.printf "  %-16s %s\n" s.Checks.name
            (if n = 0 then "OK" else Printf.sprintf "VIOLATED (%d)" n);
          List.iteri
            (fun i v ->
              if i < 5 then Printf.printf "    %s\n" (Format.asprintf "%a" Checks.pp_violation v))
            vs;
          if n > 5 then Printf.printf "    ... and %d more\n" (n - 5))
        snap.Checks.statuses)
    (Auditor.last_snapshot a)

(* Trace, metrics, profile and timeline; raises [Sys_error] when a
   file cannot be written. *)
let write_outputs t reg =
  let trace = H.trace t.h and engine = H.engine t.h in
  let written label path write =
    Option.iter (fun path -> write path; Printf.printf "%s -> %s\n" label path) path
  in
  P2p_obs.Engine_stats.record reg engine;
  (* the shortest-path solves the run's router made, each on a first use
     of its source *)
  let routing = P2p_net.Underlay.routing (H.world t.h).Hybrid_p2p.World.underlay in
  P2p_obs.Registry.incr
    (P2p_obs.Registry.counter reg ~subsystem:"underlay" ~name:"route_solves")
    ~by:(P2p_topology.Routing.solves routing);
  (* fold the span analysis into the registry first, so the exported
     metrics carry the latency/* percentiles and tier attribution *)
  if Trace.enabled trace then P2p_obs.Spans.record reg trace;
  written
    (Printf.sprintf "trace: %d spans (%d ops)" (Trace.total_recorded trace)
       (Trace.ops_started trace))
    t.out.trace_out
    (fun path -> Export.write_trace ~path trace);
  written "metrics" t.out.metrics_out (fun path -> Export.write_metrics ~path reg);
  if t.out.profile then begin
    Printf.printf "engine: %d events executed, queue high-water %d\n"
      (Engine.events_executed engine) (Engine.queue_high_water engine);
    List.iter
      (fun (label, fires, cpu_s) ->
        Printf.printf "  %-12s %9d fires  %9.3f ms cpu\n" label fires (cpu_s *. 1e3))
      (Engine.profile engine);
    Option.iter
      (fun a ->
        List.iter
          (fun (check, ticks, cpu_s) ->
            Printf.printf "  audit %-18s %9d ticks  %9.3f ms cpu\n" check ticks (cpu_s *. 1e3))
          (Auditor.check_times a))
      t.auditor;
    Option.iter
      (fun m ->
        let s = Manager.heal_stats m in
        Printf.printf "  heal %24d passes %9.3f ms cpu  (%d keys re-examined, %d full censuses)\n"
          s.Manager.passes (s.Manager.cpu_s *. 1e3) s.Manager.examined s.Manager.full_censuses)
      t.replication
  end;
  Option.iter
    (fun s ->
      written
        (Printf.sprintf "timeline: %d samples" (Sampler.count s))
        t.out.timeline_out
        (fun path -> Export.write_file ~path (Sampler.to_string s)))
    t.sampler

let finish ?inserted ?(gate_lookups = false) t ~end_state =
  let h = t.h in
  let reg = Metrics.registry (H.metrics h) in
  let state =
    match end_state with
    | Check_final ->
      Format.printf "%a@." Metrics.pp (H.metrics h);
      let r = Checks.(to_result (final (H.world h))) in
      (match r with
       | Ok () -> print_endline "invariants: OK"
       | Error e -> Printf.printf "invariants: VIOLATED (%s)\n" e);
      r
    | Reported r -> r
    | Audit_only -> Ok ()
  in
  (* final pull of the runtime gauges so the exported snapshot (and the
     report header rendered from it) carries them *)
  Option.iter Gc_stats.finish t.gc;
  try
    write_outputs t reg;
    let slo_ok =
      t.out.slos = [] || P2p_obs.Slo.enforce reg ~specs:t.out.slos ~print:print_endline
    in
    let audit_ok =
      match t.auditor with Some a -> Auditor.violations_total a = 0 | None -> true
    in
    let failed = if gate_lookups then Metrics.lookups_failed (H.metrics h) else 0 in
    let reason =
      if not slo_ok then Some "slo"
      else if not audit_ok then Some "audit"
      else if Result.is_error state then Some "invariants"
      else if failed > 0 then Some "lookups"
      else if t.out.dump_on_exit then Some "exit"
      else None
    in
    (* flight dump before the verdict, so a tripped gate always leaves
       its post-mortem record behind *)
    (match (t.recorder, reason) with
     | Some (fr, dir), Some reason ->
       Flight_recorder.dump fr ~trace:(H.trace h) ~registry:reg ~dir ~reason ()
       |> List.iter (Printf.printf "flight dump -> %s\n")
     | _ -> ());
    (match (t.auditor, end_state) with
     | Some a, (Check_final | Audit_only) -> print_audit_summary a
     | Some _, Reported _ | None, _ -> ());
    let kept =
      match inserted with
      | Some n when H.total_items h < n ->
        Printf.printf "DATA LOST: %d of %d inserted items missing at the end\n"
          (n - H.total_items h) n;
        false
      | Some _ | None -> true
    in
    if failed > 0 then
      Printf.printf "LOOKUPS FAILED: %d of %d\n" failed (Metrics.lookups_issued (H.metrics h));
    if Result.is_ok state && slo_ok && audit_ok && kept && failed = 0 then 0 else 1
  with Sys_error e ->
    Printf.eprintf "p2psim: cannot write output: %s\n" e;
    1
