(* p2psim — command-line driver for the hybrid P2P simulator.

   Subcommands:
     run       build a system, insert items, run lookups, print metrics
     churn     crash a fraction of the population and report the damage
     compare   hybrid vs pure Chord vs pure Gnutella on one workload
     scenario  run a declarative churn/workload script (see parse_script)
     audit     run the invariant-check catalogue online over a live system
     analyze   print the Section-4 analytical model for given parameters
     report    pretty-print (and merge) metrics JSON files written by run/serve
     serve     fork a live localhost ring over real TCP sockets
     top       live per-node table for a serving ring (scrape poller)
     cluster-report  one-shot merged rollup + SLO gate for a serving ring *)

module H = Hybrid_p2p.Hybrid
module Peer = Hybrid_p2p.Peer
module World = Hybrid_p2p.World
module Config = Hybrid_p2p.Config
module Data_ops = Hybrid_p2p.Data_ops
module Data_store = Hybrid_p2p.Data_store
module Auditor = P2p_audit.Auditor
module Checks = P2p_audit.Checks
module Rng = P2p_sim.Rng
module Trace = P2p_sim.Trace
module Engine = P2p_sim.Engine
module Registry = P2p_obs.Registry
module Export = P2p_obs.Export
module Report = P2p_obs.Report
module Spans = P2p_obs.Spans
module Sampler = P2p_obs.Sampler
module Slo = P2p_obs.Slo
module Gc_stats = P2p_obs.Gc_stats
module Engine_stats = P2p_obs.Engine_stats
module Flight_recorder = P2p_obs.Flight_recorder
module Transit_stub = P2p_topology.Transit_stub
module Metrics = P2p_net.Metrics
module Summary = P2p_stats.Summary
module Keys = P2p_workload.Keys
module Churn = P2p_workload.Churn
module Chord = P2p_chord.Ring
module Replication = P2p_replication.Manager
module Scenario = P2p_scenario.Scenario
module Mesh = P2p_gnutella.Mesh
module F = P2p_analysis.Formulas

open Cmdliner

(* --- shared argument definitions --- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let ps_arg =
  Arg.(
    value
    & opt float 0.7
    & info [ "p"; "ps" ] ~docv:"PS"
        ~doc:"System parameter $(i,p_s): fraction of peers that are s-peers.")

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let unit_interval =
  let parse s =
    match float_of_string_opt s with
    | Some x when x >= 0.0 && x <= 1.0 -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected a number in [0,1], got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* A --slo spec, checked by Slo.parse at parse time and kept as written
   (Slo.enforce and Serve.run take the raw specs). *)
let slo_spec =
  let parse s =
    match Slo.parse s with
    | Ok _ -> Ok s
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Format.pp_print_string)

let peers_arg =
  Arg.(
    value & opt positive_int 300
    & info [ "n"; "peers" ] ~docv:"N" ~doc:"Number of peers (at least 1).")

let items_arg =
  Arg.(
    value & opt positive_int 2000
    & info [ "items" ] ~docv:"K" ~doc:"Data items to insert (at least 1).")

let lookups_arg =
  Arg.(value & opt int 2000 & info [ "lookups" ] ~docv:"K" ~doc:"Lookups to issue.")

let ttl_arg =
  Arg.(value & opt int 4 & info [ "ttl" ] ~docv:"TTL" ~doc:"Flood TTL in s-networks.")

let delta_arg =
  Arg.(
    value & opt int 3
    & info [ "delta" ] ~docv:"D" ~doc:"Degree constraint of s-network trees.")

let scheme_arg =
  let parse = function
    | "tpeer" -> Ok Config.Store_at_tpeer
    | "spread" -> Ok Config.Spread_to_neighbors
    | s -> Error (`Msg (Printf.sprintf "unknown placement %S (tpeer|spread)" s))
  in
  let print ppf = function
    | Config.Store_at_tpeer -> Format.fprintf ppf "tpeer"
    | Config.Spread_to_neighbors -> Format.fprintf ppf "spread"
  in
  Arg.(
    value
    & opt (conv (parse, print)) Config.Spread_to_neighbors
    & info [ "placement" ] ~docv:"SCHEME" ~doc:"Data placement: tpeer or spread.")

let bloom_bits_arg =
  Arg.(
    value & opt int 0
    & info [ "bloom-bits" ] ~docv:"B"
        ~doc:
          "Bits per key of the attenuated Bloom summaries on s-tree edges; keyed \
           floods prune child branches whose summary misses the key (0 disables \
           pruning).")

let bloom_depth_arg =
  Arg.(
    value & opt int 4
    & info [ "bloom-depth" ] ~docv:"D"
        ~doc:
          "Attenuation depth of the edge summaries: levels beyond $(docv) hops \
           collapse into the last filter.")

let cache_arg =
  Arg.(
    value & opt int 0
    & info [ "cache" ] ~docv:"CAP"
        ~doc:
          "Per-peer result-cache capacity: successful lookups leave a copy at the \
           requester, serving repeat (Zipf-popular) requests locally (0 disables \
           caching).")

let cache_ttl_arg =
  Arg.(
    value & opt float Config.default.Config.cache_lifetime
    & info [ "cache-ttl" ] ~docv:"MS"
        ~doc:"Lifetime of cached lookup results, in simulated milliseconds.")

let replication_arg =
  Arg.(
    value & opt int 0
    & info [ "r"; "replication" ] ~docv:"R"
        ~doc:
          "Replication factor: keep $(docv) redundant copies of every item beyond \
           the primary (0 disables the durability layer).")

let anti_entropy_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "anti-entropy" ] ~docv:"MS"
        ~doc:
          "After the workload, run with the periodic anti-entropy timer armed for \
           $(docv) simulated milliseconds (requires $(b,--replication) > 0).")

(* --- observability argument definitions --- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the causal span trees as Chrome trace-event JSON to $(docv), \
           loadable in Perfetto / chrome://tracing.")

let trace_cap_arg =
  Arg.(
    value & opt positive_int 200_000
    & info [ "trace-cap" ] ~docv:"N"
        ~doc:"Trace ring-buffer capacity: the newest $(docv) spans are kept.")

let trace_sample_arg =
  Arg.(
    value & opt unit_interval 1.0
    & info [ "trace-sample" ] ~docv:"RATE"
        ~doc:
          "Head-based op sampling rate in [0,1]: each operation either carries \
           its full span tree ($(docv) of them, chosen by a deterministic hash \
           of the op id, so replays trace identical ops) or costs one integer \
           compare per span.  Latency percentiles and $(b,--slo) gates always \
           count 100% of operations regardless of the rate.  1 (default) \
           traces everything.")

(* The trace options run, scenario and audit share.  A trace exists when
   there is a file to write or [force] asks for one; its ops are sampled
   on the command's seed. *)
type tracing = {
  trace_out : string option;
  make_trace : seed:int -> force:bool -> Trace.t option;
}

let tracing_term =
  let tracing trace_out capacity sample_rate =
    let make_trace ~seed ~force =
      if trace_out = None && not force then None
      else Some (Trace.create ~capacity ~sample_rate ~sample_seed:seed ())
    in
    { trace_out; make_trace }
  in
  Term.(const tracing $ trace_out_arg $ trace_cap_arg $ trace_sample_arg)

let dump_on_exit_arg =
  Arg.(
    value & flag
    & info [ "dump-on-exit" ]
        ~doc:
          "Always write the flight-recorder dump at the end of the run, even \
           when no SLO gate or audit check tripped.")

let dump_dir_arg =
  Arg.(
    value & opt string "flight"
    & info [ "dump-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for flight-recorder dumps (created on demand).  A dump — \
           the recent-completion ring as JSONL, a chrome trace of the retained \
           spans, and a metrics snapshot — is written automatically when an \
           $(b,--slo) gate fails, an audit check finds an error, or \
           $(b,--dump-on-exit) is set.")

let timeline_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline-out" ] ~docv:"FILE"
        ~doc:
          "Sample every counter and gauge on a simulated-time cadence and write \
           the series as JSON Lines to $(docv) (rendered by \
           $(b,report --timeline)).")

let timeline_interval_arg =
  Arg.(
    value & opt float 50.0
    & info [ "timeline-interval" ] ~docv:"MS"
        ~doc:"Sampling cadence of $(b,--timeline-out), simulated milliseconds.")

let slo_arg =
  Arg.(
    value
    & opt_all slo_spec []
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:
          "Latency objective gate, repeatable: $(i,target):p$(i,N)<=$(i,MS), e.g. \
           $(b,lookup:p99<=40) or $(b,latency/phase_flood_ms:p95<=10).  Checked \
           after the run; any violated or unresolvable spec makes the command \
           exit non-zero.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Dump the metrics registry as JSON to $(docv) (read by $(b,report)).")

let metrics_csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-csv" ] ~docv:"FILE"
        ~doc:"Dump the metrics registry as CSV to $(docv).")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Enable engine profiling: per-label handler CPU time and the event-queue \
           high-water mark, printed after the run.")

let audit_interval_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "audit-interval" ] ~docv:"MS"
        ~doc:
          "Run the online invariant auditor every $(docv) simulated milliseconds; \
           violations are printed, counted under the audit/* metrics, and make the \
           command exit non-zero.")

(* Shared epilogue for audited commands: per-check summary, then the exit
   code carries whether any Error-severity violation was ever seen. *)
let finish_audit a =
  Printf.printf "audit: %d ticks, %d violations (%d errors)\n" (Auditor.ticks a)
    (Auditor.violations_total a) (Auditor.errors_total a);
  (match Auditor.last_snapshot a with
   | None -> ()
   | Some snap ->
     List.iter
       (fun (s : Checks.status) ->
         let verdict =
           match s.Checks.violations with
           | [] -> "OK"
           | vs -> Printf.sprintf "VIOLATED (%d)" (List.length vs)
         in
         Printf.printf "  %-16s %s\n" s.Checks.name verdict;
         List.iteri
           (fun i v ->
             if i < 5 then Printf.printf "    %s\n" (Format.asprintf "%a" Checks.pp_violation v))
           s.Checks.violations;
         if List.length s.Checks.violations > 5 then
           Printf.printf "    ... and %d more\n" (List.length s.Checks.violations - 5))
       snap.Checks.statuses);
  if Auditor.errors_total a > 0 then Some 1 else None

(* Snapshot engine counters into the registry so exported metrics carry
   them alongside the protocol subsystems. *)
let snapshot_engine_stats h =
  let reg = Metrics.registry (H.metrics h) in
  Engine_stats.record reg (H.engine h);
  reg

let export_observability h ~trace_out ~metrics_out ~metrics_csv ~profile () =
  let reg = snapshot_engine_stats h in
  (* fold the span analysis into the registry first, so the exported
     metrics carry the latency/* percentiles and tier attribution *)
  if Trace.enabled (H.trace h) then Spans.record reg (H.trace h);
  try
  (match trace_out with
   | Some path ->
     Export.write_trace ~path (H.trace h);
     Printf.printf "trace: %d spans (%d ops) -> %s\n"
       (Trace.total_recorded (H.trace h))
       (Trace.ops_started (H.trace h))
       path
   | None -> ());
  (match metrics_out with
   | Some path ->
     Export.write_metrics ~path reg;
     Printf.printf "metrics -> %s\n" path
   | None -> ());
  (match metrics_csv with
   | Some path ->
     Export.write_metrics_csv ~path reg;
     Printf.printf "metrics (csv) -> %s\n" path
   | None -> ());
  if profile then begin
    let engine = H.engine h in
    Printf.printf "engine: %d events executed, queue high-water %d\n"
      (Engine.events_executed engine)
      (Engine.queue_high_water engine);
    List.iter
      (fun (label, fires, cpu_s) ->
        Printf.printf "  %-12s %9d fires  %9.3f ms cpu\n" label fires (cpu_s *. 1e3))
      (Engine.profile engine)
  end
  with Sys_error e ->
    Printf.eprintf "p2psim: cannot write output: %s\n" e;
    exit 1

(* --- system construction over a transit-stub underlay --- *)

let topology_for n =
  (* pick transit-stub parameters that give at least n nodes *)
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

let build_system ?trace ?(profile = false) ~seed ~ps ~n ~config () =
  let topo = Transit_stub.generate ~rng:(Rng.create (seed + 1)) (topology_for n) in
  let h = H.create ~seed ~routing:(Transit_stub.routing topo) ~config ?trace () in
  if profile then Engine.enable_profiling (H.engine h);
  let rng = Rng.create (seed + 2) in
  let roles = Array.init n (fun _ -> if Rng.bernoulli rng ps then Peer.S_peer else Peer.T_peer) in
  roles.(0) <- Peer.T_peer;
  Array.iteri
    (fun host role ->
      ignore (H.join h ~host ~role () : Peer.t);
      H.run h)
    roles;
  (h, rng)

(* Print the run's metrics and the end-of-run invariant verdict; [false]
   when the catalogue found an error, which the caller turns into exit 1. *)
let print_metrics h =
  Format.printf "%a@." Metrics.pp (H.metrics h);
  match Checks.(to_result (final (H.world h))) with
  | Ok () ->
    print_endline "invariants: OK";
    true
  | Error e ->
    Printf.printf "invariants: VIOLATED (%s)\n" e;
    false

(* --- run subcommand --- *)

let run_cmd =
  let run seed ps n items lookups ttl delta placement bloom_bits bloom_depth
      cache_capacity cache_ttl replication anti_entropy
      { trace_out; make_trace } timeline_out
      timeline_interval slos metrics_out metrics_csv profile audit_interval
      dump_on_exit dump_dir =
    let config =
      {
        Config.default with
        Config.default_ttl = ttl;
        delta;
        placement;
        bloom_bits_per_key = bloom_bits;
        bloom_depth;
        cache_capacity;
        cache_lifetime = cache_ttl;
        replication_factor = replication;
      }
    in
    (match Config.validate config with
     | Ok () -> ()
     | Error e ->
       Printf.eprintf "p2psim: %s\n" e;
       exit 1);
    if timeline_interval <= 0.0 then begin
      Printf.eprintf "p2psim: --timeline-interval must be positive (got %g)\n"
        timeline_interval;
      exit 1
    end;
    (* SLO specs over latency/* percentiles need the op-completion
       stream, so a gate also turns tracing on (without a --trace-out
       file nothing is written); same for an exit dump, whose chrome
       trace comes from the retained spans *)
    let trace = make_trace ~seed ~force:(slos <> [] || dump_on_exit) in
    Printf.printf "building %d peers (p_s = %.2f) over a transit-stub underlay...\n%!" n ps;
    let h, rng = build_system ?trace ~profile ~seed ~ps ~n ~config () in
    let manager =
      if replication > 0 then Some (Replication.install (H.world h)) else None
    in
    let auditor =
      Option.map (fun interval -> Auditor.create ~interval (H.world h)) audit_interval
    in
    let reg = Metrics.registry (H.metrics h) in
    let gcs = Gc_stats.create reg in
    (* The always-on flight recorder: fed 100% of op completions by the
       trace listener (independent of --trace-sample) and every audit
       violation; dumped when something trips. *)
    let recorder =
      match (trace, auditor) with
      | None, None -> None
      | _ -> Some (Flight_recorder.create ~capacity:8192 ())
    in
    (match (recorder, trace) with
     | Some fr, Some tr -> Trace.on_op_complete tr (Flight_recorder.observe fr)
     | _ -> ());
    (match (recorder, auditor) with
     | Some fr, Some a ->
       Auditor.set_on_violation a (fun ~time ~check ~severity ~detail ->
           Flight_recorder.record_audit fr ~at:time ~check ~severity ~detail)
     | _ -> ());
    let sampler =
      Option.map
        (fun _ ->
          Sampler.create ~interval:timeline_interval
            ~on_sample:(fun () ->
              Gc_stats.update gcs;
              Engine_stats.record reg (H.engine h))
            reg)
        timeline_out
    in
    let drain () =
      match sampler with
      | None -> (
        match auditor with None -> H.run h | Some a -> Auditor.settle a)
      | Some s ->
        (* custom step loop: interleave metric sampling (and due audit
           ticks) with event execution, then close the window *)
        let engine = H.engine h in
        let continue = ref true in
        while !continue do
          Sampler.poll s ~now:(Engine.now engine);
          (match auditor with
           | Some a when Auditor.due a -> ignore (Auditor.tick a : Checks.snapshot)
           | Some _ | None -> ());
          if not (Engine.step engine) then continue := false
        done;
        Sampler.poll s ~now:(Engine.now engine);
        (match auditor with
         | Some a -> ignore (Auditor.tick a : Checks.snapshot)
         | None -> ())
    in
    Printf.printf "system: %d t-peers, %d s-peers\n%!" (H.t_peer_count h) (H.s_peer_count h);
    let corpus = Keys.generate ~rng ~count:items ~categories:4 in
    Array.iter
      (fun it ->
        H.insert h ~from:(H.random_peer h) ~key:it.Keys.key ~value:it.Keys.value ())
      corpus;
    drain ();
    Printf.printf "inserted %d items\n%!" (H.total_items h);
    let targets = Keys.lookup_sequence ~rng ~items:corpus ~count:lookups in
    Array.iter
      (fun it ->
        H.lookup h ~from:(H.random_peer h) ~key:it.Keys.key ~on_result:(fun _ -> ()) ())
      targets;
    drain ();
    (match (manager, anti_entropy) with
     | Some m, Some ms ->
       (* the periodic timer keeps the queue non-empty: bracket it *)
       Printf.printf "anti-entropy window: %.0f ms\n%!" ms;
       Replication.start m;
       (match sampler with
        | None -> (
          match auditor with
          | None -> H.run_for h ms
          | Some a -> Auditor.advance a ~ms)
        | Some s ->
          (* advance in sampling-cadence slices so the timeline keeps
             ticking through the otherwise opaque window *)
          let engine = H.engine h in
          let target = Engine.now engine +. ms in
          while Engine.now engine < target do
            let next = Float.min target (Engine.now engine +. timeline_interval) in
            Engine.run_until engine ~time:next;
            Sampler.poll s ~now:(Engine.now engine);
            match auditor with
            | Some a when Auditor.due a -> ignore (Auditor.tick a : Checks.snapshot)
            | Some _ | None -> ()
          done);
       Replication.stop m;
       drain ()
     | None, Some _ ->
       Printf.eprintf "p2psim: --anti-entropy requires --replication > 0\n";
       exit 1
     | _, None -> ());
    let invariants_ok = print_metrics h in
    (* final pull of the runtime gauges so the exported snapshot (and
       the report header rendered from it) carries them *)
    Gc_stats.update gcs;
    export_observability h ~trace_out ~metrics_out ~metrics_csv ~profile ();
    (match (sampler, timeline_out) with
     | Some s, Some path ->
       (try
          Export.write_file ~path (Sampler.to_string s);
          Printf.printf "timeline: %d samples -> %s\n" (Sampler.count s) path
        with Sys_error e ->
          Printf.eprintf "p2psim: cannot write output: %s\n" e;
          exit 1)
     | _ -> ());
    let slo_ok =
      slos = [] || Slo.enforce reg ~specs:slos ~print:print_endline
    in
    let audit_failed =
      match auditor with Some a -> Auditor.errors_total a > 0 | None -> false
    in
    (* flight dump before any failure exit, so a tripped gate always
       leaves its post-mortem record behind *)
    (match recorder with
     | Some fr ->
       let reason =
         if not slo_ok then Some "slo"
         else if audit_failed then Some "audit"
         else if not invariants_ok then Some "invariants"
         else if dump_on_exit then Some "exit"
         else None
       in
       (match reason with
        | Some reason ->
          (try
             let files =
               Flight_recorder.dump fr ?trace ~registry:reg ~dir:dump_dir ~reason ()
             in
             List.iter (fun f -> Printf.printf "flight dump -> %s\n" f) files
           with Sys_error e ->
             Printf.eprintf "p2psim: cannot write flight dump: %s\n" e;
             exit 1)
        | None -> ())
     | None -> ());
    (match Option.bind auditor finish_audit with
     | Some code -> exit code
     | None -> ());
    if not (slo_ok && invariants_ok) then exit 1
  in
  let term =
    Term.(
      const run $ seed_arg $ ps_arg $ peers_arg $ items_arg $ lookups_arg $ ttl_arg
      $ delta_arg $ scheme_arg $ bloom_bits_arg $ bloom_depth_arg $ cache_arg
      $ cache_ttl_arg $ replication_arg $ anti_entropy_arg $ tracing_term
      $ timeline_out_arg
      $ timeline_interval_arg $ slo_arg $ metrics_out_arg $ metrics_csv_arg
      $ profile_arg $ audit_interval_arg $ dump_on_exit_arg $ dump_dir_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Build a hybrid system, insert items, run lookups, print metrics.")
    term

(* --- churn subcommand --- *)

let churn_cmd =
  let run seed ps n crash_fraction replication =
    let config = { Config.default with Config.replication_factor = replication } in
    let h, rng = build_system ~seed ~ps ~n ~config () in
    let manager =
      if replication > 0 then Some (Replication.install (H.world h)) else None
    in
    Option.iter
      (fun m -> Printf.printf "replication: factor %d\n" (Replication.factor m))
      manager;
    let corpus = Keys.generate ~rng ~count:1000 ~categories:4 in
    Array.iter
      (fun it ->
        H.insert h ~from:(H.random_peer h) ~key:it.Keys.key ~value:it.Keys.value ())
      corpus;
    H.run h;
    let before = H.total_items h in
    let peers = Array.of_list (H.peers h) in
    let victims = Churn.crash_storm ~rng ~population:(Array.length peers) ~fraction:crash_fraction in
    Array.iter (fun i -> H.crash h peers.(i)) victims;
    H.repair h;
    H.run h;
    Printf.printf "crashed %d peers; %d/%d items survived\n" (Array.length victims)
      (H.total_items h) before;
    Array.iter
      (fun it ->
        H.lookup h ~from:(H.random_peer h) ~key:it.Keys.key ~on_result:(fun _ -> ()) ())
      corpus;
    H.run h;
    Printf.printf "lookup failure ratio after storm: %.4f\n"
      (Metrics.failure_ratio (H.metrics h));
    if not (print_metrics h) then exit 1
  in
  let fraction_arg =
    Arg.(
      value & opt float 0.2
      & info [ "crash" ] ~docv:"F" ~doc:"Fraction of peers to crash.")
  in
  let term =
    Term.(const run $ seed_arg $ ps_arg $ peers_arg $ fraction_arg $ replication_arg)
  in
  Cmd.v (Cmd.info "churn" ~doc:"Crash a fraction of peers and measure the damage.") term

(* --- compare subcommand: hybrid vs pure baselines --- *)

let compare_cmd =
  let run seed n items lookups ttl =
    let rng = Rng.create seed in
    let corpus = Keys.generate ~rng ~count:items ~categories:4 in
    (* hybrid at the paper's sweet spot *)
    let config = { Config.default with Config.default_ttl = ttl } in
    let h, hrng = build_system ~seed ~ps:0.7 ~n ~config () in
    ignore hrng;
    Array.iter
      (fun it ->
        H.insert h ~from:(H.random_peer h) ~key:it.Keys.key ~value:it.Keys.value ())
      corpus;
    H.run h;
    let targets = Keys.lookup_sequence ~rng ~items:corpus ~count:lookups in
    Array.iter
      (fun it ->
        H.lookup h ~from:(H.random_peer h) ~key:it.Keys.key ~on_result:(fun _ -> ()) ())
      targets;
    H.run h;
    let hm = H.metrics h in
    Printf.printf "%-22s failure %6.4f   mean hops %6.2f   connum/lookup %8.1f\n"
      "hybrid (ps=0.7)" (Metrics.failure_ratio hm)
      (Summary.mean (Metrics.lookup_hops hm))
      (float_of_int (Metrics.connum hm) /. float_of_int lookups);
    (* pure Chord, with the same successor-list budget the hybrid ring uses *)
    let ring =
      Chord.create
        ~successor_list_length:Config.default.Config.successor_list_length ()
    in
    let crng = Rng.create (seed + 10) in
    let nodes = ref [] in
    let used = Hashtbl.create n in
    while List.length !nodes < n do
      let id = Rng.int crng P2p_hashspace.Id_space.size in
      if not (Hashtbl.mem used id) then begin
        Hashtbl.add used id ();
        nodes := fst (Chord.join ring ~host:(Hashtbl.length used) ~p_id:id) :: !nodes
      end
    done;
    let node_arr = Array.of_list !nodes in
    Array.iter
      (fun it ->
        ignore
          (Chord.store ring ~from:(Rng.pick crng node_arr) ~key:it.Keys.key
             ~value:it.Keys.value
            : Chord.node list))
      corpus;
    let chops = ref 0 and cfail = ref 0 in
    Array.iter
      (fun it ->
        let value, path = Chord.lookup ring ~from:(Rng.pick crng node_arr) ~key:it.Keys.key in
        chops := !chops + List.length path - 1;
        if value = None then incr cfail)
      targets;
    Printf.printf "%-22s failure %6.4f   mean hops %6.2f   (finger-routed)\n" "pure Chord"
      (float_of_int !cfail /. float_of_int lookups)
      (float_of_int !chops /. float_of_int lookups);
    (* pure Gnutella *)
    let mesh = Mesh.create ~rng:(Rng.create (seed + 20)) ~links_per_join:3 () in
    let mpeers = Array.init n (fun host -> Mesh.join mesh ~host) in
    let mrng = Rng.create (seed + 21) in
    Array.iter
      (fun it ->
        Mesh.store mesh (Rng.pick mrng mpeers) ~key:it.Keys.key ~value:it.Keys.value)
      corpus;
    let ghits = ref 0 and gcontacts = ref 0 in
    Array.iter
      (fun it ->
        let r = Mesh.flood_lookup mesh ~from:(Rng.pick mrng mpeers) ~key:it.Keys.key ~ttl in
        if r.Mesh.value <> None then incr ghits;
        gcontacts := !gcontacts + r.Mesh.contacted)
      targets;
    Printf.printf "%-22s failure %6.4f   contacts/lookup %8.1f   (ttl %d flood)\n"
      "pure Gnutella"
      (1.0 -. (float_of_int !ghits /. float_of_int lookups))
      (float_of_int !gcontacts /. float_of_int lookups)
      ttl
  in
  let term =
    Term.(const run $ seed_arg $ peers_arg $ items_arg $ lookups_arg $ ttl_arg)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Hybrid vs pure Chord vs pure Gnutella on one workload.")
    term

(* --- scenario subcommand --- *)

(* Compact script syntax, whitespace-separated tokens:
     join:N:PS  leave  crash  crash:F  repair  insert:N  lookup:N
     settle     advance:MS  anti-entropy:MS
   e.g. "join:80:0.7 insert:200 crash:0.2 repair lookup:200" *)
let parse_script text =
  let parse_token token =
    match String.split_on_char ':' token with
    | [ "join"; n; ps ] -> Ok (Scenario.Join_many (int_of_string n, float_of_string ps))
    | [ "join" ] -> Ok (Scenario.Join_many (1, 0.5))
    | [ "leave" ] -> Ok Scenario.Leave_random
    | [ "crash" ] -> Ok Scenario.Crash_random
    | [ "crash"; f ] -> Ok (Scenario.Crash_fraction (float_of_string f))
    | [ "repair" ] -> Ok Scenario.Repair
    | [ "insert"; n ] -> Ok (Scenario.Insert_items (int_of_string n))
    | [ "lookup"; n ] -> Ok (Scenario.Lookup_items (int_of_string n))
    | [ "settle" ] -> Ok Scenario.Settle
    | [ "advance"; ms ] -> Ok (Scenario.Advance (float_of_string ms))
    | [ "anti-entropy"; ms ] -> Ok (Scenario.Anti_entropy (float_of_string ms))
    | _ -> Error token
  in
  String.split_on_char ' ' text
  |> List.filter (fun t -> t <> "")
  |> List.fold_left
       (fun acc token ->
         match (acc, parse_token token) with
         | Ok actions, Ok a -> Ok (a :: actions)
         | (Error _ as e), _ -> e
         | Ok _, Error t -> Error t)
       (Ok [])
  |> Result.map List.rev

let scenario_cmd =
  let run seed n script_text replication assert_no_loss
      audit_interval { trace_out; make_trace } metrics_out =
    match parse_script script_text with
    | Error token ->
      Printf.printf "cannot parse script token %S\n" token;
      exit 1
    | Ok script ->
      let trace = make_trace ~seed ~force:false in
      let config = { Config.default with Config.replication_factor = replication } in
      (match Config.validate config with
       | Ok () -> ()
       | Error e ->
         Printf.eprintf "p2psim: %s\n" e;
         exit 1);
      let topo = Transit_stub.generate ~rng:(Rng.create (seed + 1)) (topology_for n) in
      let h =
        H.create ~seed ~routing:(Transit_stub.routing topo) ~config ?trace ()
      in
      let report = Scenario.run ?audit_interval h ~seed ~script in
      Format.printf "%a@." Scenario.pp_report report;
      export_observability h ~trace_out ~metrics_out ~metrics_csv:None
        ~profile:false ();
      if
        assert_no_loss
        && report.Scenario.final_items < report.Scenario.inserted
      then begin
        Printf.printf "DATA LOST: %d of %d inserted items missing at the end\n"
          (report.Scenario.inserted - report.Scenario.final_items)
          report.Scenario.inserted;
        exit 1
      end;
      (* the exit code carries health: a violated end state, and with
         auditing on any violation at any tick, fails the command (CI
         gates on this) *)
      if Result.is_error report.Scenario.invariants then exit 1;
      match report.Scenario.audit with
      | Some a when a.Scenario.audit_violations > 0 -> exit 1
      | Some _ | None -> ()
  in
  let script_arg =
    Arg.(
      value
      & opt string "join:80:0.7 insert:200 settle crash:0.2 repair lookup:200"
      & info [ "script" ] ~docv:"SCRIPT"
          ~doc:
            "Whitespace-separated actions: join:N:PS, leave, crash, crash:F, \
             repair, insert:N, lookup:N, settle, advance:MS, anti-entropy:MS.")
  in
  let assert_no_loss_arg =
    Arg.(
      value & flag
      & info [ "assert-no-loss" ]
          ~doc:
            "Exit non-zero if any inserted item is missing from the primary stores \
             when the script ends (the durability gate CI runs under \
             $(b,--replication)).")
  in
  let term =
    Term.(
      const run $ seed_arg $ peers_arg $ script_arg $ replication_arg $ assert_no_loss_arg $ audit_interval_arg $ tracing_term
      $ metrics_out_arg)
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run a declarative churn/workload script and report.")
    term

(* --- audit subcommand --- *)

(* Deliberate corruption of a live system, for demonstrating (and testing)
   that the auditor catches real damage.  Each injection violates exactly
   one invariant class. *)
let inject_corruption h ~config = function
  | "none" -> ()
  | "degree" ->
    (* wire unregistered stowaway children onto a root until its tree
       degree exceeds delta *)
    let w = H.world h in
    let arr = World.t_peers w in
    if Array.length arr = 0 then failwith "no t-peer to corrupt";
    let root = arr.(0) in
    let needed = config.Config.delta + 1 - List.length root.Peer.children in
    for i = 1 to max 1 needed do
      let child =
        Peer.make ~host:(-i) ~p_id:root.Peer.p_id ~role:Peer.S_peer
          ~link_capacity:10.0 ()
      in
      Peer.attach_child ~parent:root ~child
    done
  | "ring" ->
    let w = H.world h in
    let arr = World.t_peers w in
    if Array.length arr < 2 then failwith "need at least 2 t-peers to break the ring";
    arr.(0).Peer.succ <- Some arr.(0)
  | "placement" ->
    (* plant an item whose route_id falls outside its holder's segment *)
    let w = H.world h in
    let arr = World.t_peers w in
    if Array.length arr < 2 then failwith "need at least 2 t-peers to misplace an item";
    let victim = arr.(0) in
    let outside = Peer.segment_left victim in
    Data_store.insert_routed victim.Peer.store ~route_id:outside
      ~key:"audit-misplaced" ~value:"x"
  | "replication" ->
    (* silently drop one replica copy: the replication_factor check must
       flag the under-replicated item, and a heal pass must restore it *)
    if config.Config.replication_factor = 0 then
      failwith "--inject replication requires --replication > 0";
    let w = H.world h in
    let holder =
      List.find_opt
        (fun p -> Data_store.size p.Peer.replicas > 0)
        (World.live_peers w)
    in
    (match holder with
     | None -> failwith "no replica copies exist to corrupt"
     | Some p ->
       (match Data_store.keys p.Peer.replicas with
        | [] -> assert false
        | key :: _ ->
          Data_store.remove p.Peer.replicas ~key;
          Printf.printf "dropped replica copy of %S at host %d\n" key p.Peer.host))
  | other -> failwith (Printf.sprintf "unknown injection %S" other)

let audit_cmd =
  let run seed ps n items lookups interval inject bloom_bits bloom_depth cache_capacity
      replication checks { trace_out; make_trace } metrics_out metrics_csv =
    let config =
      {
        Config.default with
        Config.bloom_bits_per_key = bloom_bits;
        bloom_depth;
        cache_capacity;
        replication_factor = replication;
      }
    in
    (match Config.validate config with
     | Ok () -> ()
     | Error e ->
       Printf.eprintf "p2psim: %s\n" e;
       exit 1);
    let selected =
      match checks with
      | [] -> Checks.all
      | names -> (
        match Checks.select names with
        | Ok cs -> cs
        | Error unknown ->
          Printf.eprintf "p2psim audit: unknown check %S (have: %s)\n" unknown
            (String.concat ", " Checks.names);
          exit 1)
    in
    let trace = make_trace ~seed ~force:false in
    Printf.printf "building %d peers (p_s = %.2f)...\n%!" n ps;
    let h, rng = build_system ?trace ~seed ~ps ~n ~config () in
    let manager =
      if replication > 0 then Some (Replication.install (H.world h)) else None
    in
    let a = Auditor.create ~interval ~checks:selected (H.world h) in
    let corpus = Keys.generate ~rng ~count:items ~categories:4 in
    Array.iter
      (fun it ->
        H.insert h ~from:(H.random_peer h) ~key:it.Keys.key ~value:it.Keys.value ())
      corpus;
    Auditor.settle a;
    let targets = Keys.lookup_sequence ~rng ~items:corpus ~count:lookups in
    Array.iter
      (fun it ->
        H.lookup h ~from:(H.random_peer h) ~key:it.Keys.key ~on_result:(fun _ -> ()) ())
      targets;
    Auditor.settle a;
    (try inject_corruption h ~config inject
     with Failure msg ->
       Printf.eprintf "p2psim audit: %s\n" msg;
       exit 2);
    if inject <> "none" then
      Printf.printf "injected corruption: %s\n" inject;
    (* let the armed periodic timer catch whatever state the run ended in *)
    Auditor.start a;
    H.run_for h (2.0 *. interval);
    Auditor.stop a;
    (* for the replication demo, close the loop: a heal pass restores the
       dropped copy and a final tick shows the check going quiet again *)
    (match (manager, inject) with
     | Some m, "replication" ->
       Replication.heal m;
       H.run h;
       let snap = Auditor.tick a in
       let healed =
         List.for_all
           (fun (s : Checks.status) ->
             s.Checks.name <> "replication_factor" || s.Checks.violations = [])
           snap.Checks.statuses
       in
       Printf.printf "heal pass: replication_factor %s\n"
         (if healed then "restored (check clean)" else "STILL VIOLATED")
     | _ -> ());
    export_observability h ~trace_out ~metrics_out ~metrics_csv ~profile:false ();
    match finish_audit a with Some code -> exit code | None -> ()
  in
  let interval_arg =
    Arg.(
      value & opt float 250.0
      & info [ "interval" ] ~docv:"MS" ~doc:"Audit cadence in simulated milliseconds.")
  in
  let inject_arg =
    Arg.(
      value
      & opt string "none"
      & info [ "inject" ] ~docv:"KIND"
          ~doc:
            "Deliberately corrupt the system before the final audit window: \
             $(b,degree) (s-peer over the degree cap), $(b,ring) (broken successor \
             pointer), $(b,placement) (item outside its owner's segment), \
             $(b,replication) (silently dropped replica copy; needs \
             $(b,--replication) > 0, and a heal pass restores it after the audit \
             window), or $(b,none).")
  in
  let checks_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "check" ] ~docv:"NAME"
          ~doc:"Run only this catalogue check (repeatable; default: all).")
  in
  let term =
    Term.(
      const run $ seed_arg $ ps_arg $ peers_arg $ items_arg $ lookups_arg $ interval_arg
      $ inject_arg $ bloom_bits_arg $ bloom_depth_arg $ cache_arg $ replication_arg
      $ checks_arg $ tracing_term $ metrics_out_arg $ metrics_csv_arg)
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Build a system, run a workload under the online invariant auditor, and exit \
          non-zero if any Error-severity violation is found.  $(b,--inject) \
          demonstrates detection by corrupting the system first.")
    term

(* --- analyze subcommand --- *)

let analyze_cmd =
  let run n delta ttl =
    Printf.printf "Section-4 model, N = %d, delta = %d, ttl = %d\n" n delta ttl;
    Printf.printf "%6s  %12s  %14s  %14s\n" "p_s" "join (hops)" "lookup (hops)" "failure ratio";
    List.iter
      (fun ps ->
        Printf.printf "%6.2f  %12.3f  %14.3f  %14.4f\n" ps
          (F.join_latency ~ps ~n ~delta)
          (F.lookup_latency ~ps ~n ~delta ~ttl)
          (F.lookup_failure_ratio ~ps ~delta ~ttl))
      [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95; 0.99 ]
  in
  let n_arg =
    Arg.(value & opt int 1000 & info [ "n" ] ~docv:"N" ~doc:"Total number of peers.")
  in
  let term = Term.(const run $ n_arg $ delta_arg $ ttl_arg) in
  Cmd.v (Cmd.info "analyze" ~doc:"Print the paper's Section-4 analytical model.") term

(* --- report subcommand --- *)

(* Merge several metrics documents (e.g. one per live node, or serve's
   per-node scrape files) into one registry export: counters sum,
   gauges keep the maximum, log histograms merge bucketwise.  A single
   file passes through unmerged so Summary-backed histograms (which the
   merge cannot rebuild) stay visible. *)
let merged_metrics_doc paths =
  match paths with
  | [ path ] -> Ok (Export.read_file path)
  | paths ->
    let reg = Registry.create () in
    let rec fold = function
      | [] -> Ok (P2p_obs.Json.to_string (Registry.to_json reg))
      | path :: rest -> (
        match P2p_obs.Json.parse (Export.read_file path) with
        | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
        | Ok doc ->
          (* scrape snapshots wrap the registry doc in [metrics] *)
          let doc =
            match P2p_obs.Scrape.of_json doc with
            | Ok snap -> snap.P2p_obs.Scrape.metrics
            | Error _ -> doc
          in
          P2p_obs.Scrape.merge_metrics_into reg doc;
          fold rest)
    in
    fold paths

let report_cmd =
  let run paths timeline =
    if paths = [] && timeline = None then begin
      Printf.eprintf
        "p2psim report: nothing to render (give METRICS.json and/or --timeline)\n";
      exit 1
    end;
    (match paths with
     | [] -> ()
     | paths -> (
       match merged_metrics_doc paths with
       | Error msg ->
         Printf.eprintf "p2psim report: %s\n" msg;
         exit 1
       | Ok doc -> (
         match Report.of_string doc with
         | Ok report ->
           if List.length paths > 1 then
             Printf.printf "merged report over %d metrics files\n\n"
               (List.length paths);
           print_string (Report.render report)
         | Error msg ->
           Printf.eprintf "p2psim report: cannot parse metrics: %s\n" msg;
           exit 1)));
    match timeline with
    | Some tpath -> (
      match Report.render_timeline (Export.read_file tpath) with
      | Ok text -> print_string text
      | Error msg ->
        Printf.eprintf "p2psim report: cannot parse timeline %s: %s\n" tpath msg;
        exit 1)
    | None -> ()
  in
  let path_arg =
    Arg.(
      value
      & pos_all file []
      & info [] ~docv:"METRICS.json"
          ~doc:
            "Metrics JSON files written by $(b,run --metrics-out) or \
             $(b,serve)'s per-node scrapes.  Several files are merged \
             (counters sum, gauges max, latency log histograms \
             bucket-merge) before rendering.")
  in
  let timeline_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "timeline" ] ~docv:"FILE"
          ~doc:
            "Also render a sampler timeline (JSONL written by \
             $(b,run --timeline-out)) as ASCII sparklines, one row per active \
             series.")
  in
  let term = Term.(const run $ path_arg $ timeline_arg) in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Pretty-print a metrics JSON dump: per-subsystem counters, gauges, \
          latency percentile tables with critical-path attribution, and ASCII \
          charts; $(b,--timeline) adds sparkline time series.")
    term

(* --- serve subcommand --- *)

let serve_cmd =
  let run peers port_base smoke inserts lookups ready_timeout dump_dir
      sample_rate sample_seed slo linger =
    let outcome =
      P2p_transport.Serve.run ~inserts ~lookups ~ready_timeout ~dump_dir
        ~sample_rate ~sample_seed ~slo ~linger ~peers ~port_base ~smoke ()
    in
    P2p_transport.Serve.print_outcome outcome;
    exit outcome.P2p_transport.Serve.exit_code
  in
  let peers_arg =
    Arg.(
      value & opt positive_int 8
      & info [ "peers" ] ~docv:"N" ~doc:"Number of worker processes to fork.")
  in
  let port_base_arg =
    Arg.(
      value & opt int 4700
      & info [ "port-base" ] ~docv:"PORT"
          ~doc:
            "First TCP port; worker $(i,i) listens on 127.0.0.1:PORT+$(i,i) \
             and the client on PORT+N.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Run the smoke workload (inserts + lookups), report recall, shut \
             the ring down and exit non-zero unless recall is 1.0 and the \
             health dumps are violation-free.")
  in
  let inserts_arg =
    Arg.(
      value & opt int 200
      & info [ "inserts" ] ~docv:"K" ~doc:"Smoke-mode insert count.")
  in
  let lookups_arg =
    Arg.(
      value & opt int 500
      & info [ "lookups" ] ~docv:"K" ~doc:"Smoke-mode lookup count.")
  in
  let ready_timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "ready-timeout" ] ~docv:"SECONDS"
          ~doc:"How long to wait for every worker to report ready.")
  in
  let dump_dir_arg =
    Arg.(
      value & opt string "_serve_health"
      & info [ "dump-dir" ] ~docv:"DIR"
          ~doc:
            "Directory receiving one health-$(i,node).jsonl per worker \
             (periodic self-audit and transport counters).")
  in
  let sample_rate_arg =
    Arg.(
      value
      & opt unit_interval P2p_transport.Serve.default_sample_rate
      & info [ "trace-sample" ] ~docv:"RATE"
          ~doc:
            "Cluster-wide head-sampling rate for cross-process traces \
             (every worker gets the same rate so wire-propagated sampling \
             bits agree with local decisions).")
  in
  let sample_seed_arg =
    Arg.(
      value
      & opt int P2p_transport.Serve.default_sample_seed
      & info [ "trace-seed" ] ~docv:"SEED"
          ~doc:"Seed of the sampling hash (must also match cluster-wide).")
  in
  let slo_arg =
    Arg.(
      value & opt_all slo_spec []
      & info [ "slo" ] ~docv:"SPEC"
          ~doc:
            "Latency objective such as $(i,lookup:p99<=2000), enforced in \
             smoke mode against the cluster-merged histograms; repeatable; \
             any violation makes the exit code non-zero.")
  in
  let linger_arg =
    Arg.(
      value & opt float 0.
      & info [ "linger" ] ~docv:"SECONDS"
          ~doc:
            "Smoke mode: keep the warmed-up ring serving this long after \
             the scrape, so $(b,p2psim top) / $(b,p2psim cluster-report) \
             can poll it with populated histograms.")
  in
  let term =
    Term.(
      const run $ peers_arg $ port_base_arg $ smoke_arg $ inserts_arg
      $ lookups_arg $ ready_timeout_arg $ dump_dir_arg $ sample_rate_arg
      $ sample_seed_arg $ slo_arg $ linger_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Fork N OS processes that bootstrap a live ring on localhost over \
          real TCP sockets, serve inserts/lookups, answer observability \
          scrapes, and write periodic JSONL health dumps per process.")
    term

(* --- top / cluster-report subcommands (live-ring aggregator) --- *)

let aggregator_args =
  let peers_arg =
    Arg.(
      value & opt positive_int 8
      & info [ "peers" ] ~docv:"N"
          ~doc:"Ring size of the serving cluster to poll.")
  in
  let port_base_arg =
    Arg.(
      value & opt int 4700
      & info [ "port-base" ] ~docv:"PORT"
          ~doc:"The serving ring's $(b,--port-base).")
  in
  let timeout_arg =
    Arg.(
      value & opt float 5.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"How long to wait for scrape replies each round.")
  in
  (peers_arg, port_base_arg, timeout_arg)

let top_cmd =
  let run peers port_base timeout interval count =
    let agg = P2p_transport.Serve.aggregator ~peers ~port_base () in
    let rounds = ref 0 in
    let stop = ref false in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
     with Invalid_argument _ | Sys_error _ -> ());
    while (not !stop) && (count = 0 || !rounds < count) do
      let snapshots = P2p_transport.Serve.aggregator_scrape agg ~timeout () in
      incr rounds;
      (* full-screen refresh, like top(1); suppressed for single shots
         so the output stays pipeable *)
      if count <> 1 then print_string "\027[2J\027[H";
      Printf.printf "p2psim top — ring @ 127.0.0.1:%d+ (%d peers), round %d\n\n"
        port_base peers !rounds;
      if snapshots = [] then
        print_string "no peers answered (is the ring serving?)\n"
      else print_string (P2p_obs.Scrape.render_table snapshots);
      if snapshots = [] && !rounds = 1 && count = 1 then begin
        P2p_transport.Serve.aggregator_stop agg;
        exit 1
      end;
      if count = 0 || !rounds < count then
        ignore (Unix.select [] [] [] interval)
    done;
    P2p_transport.Serve.aggregator_stop agg;
    exit 0
  in
  let peers_arg, port_base_arg, timeout_arg = aggregator_args in
  let interval_arg =
    Arg.(
      value & opt float 2.
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Delay between refreshes.")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"K"
          ~doc:"Stop after this many refreshes (0 = until Ctrl-C).")
  in
  let term =
    Term.(
      const run $ peers_arg $ port_base_arg $ timeout_arg $ interval_arg
      $ count_arg)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live per-node table for a serving ring: poll every peer's scrape \
          endpoint and refresh a cluster view (readiness, store sizes, \
          merged latency percentiles, wire counters) like top(1).")
    term

let cluster_report_cmd =
  let run peers port_base timeout slo metrics_out trace_out =
    let agg = P2p_transport.Serve.aggregator ~peers ~port_base () in
    let snapshots =
      P2p_transport.Serve.aggregator_scrape agg ~spans:true ~timeout ()
    in
    P2p_transport.Serve.aggregator_stop agg;
    if snapshots = [] then begin
      Printf.eprintf
        "p2psim cluster-report: no peers answered (is the ring serving?)\n";
      exit 1
    end;
    let scraped = List.length snapshots in
    if scraped < peers then
      Printf.eprintf "p2psim cluster-report: warning: only %d/%d peers answered\n"
        scraped peers;
    let merged = P2p_obs.Scrape.merged_registry snapshots in
    print_string (P2p_obs.Scrape.render_table snapshots);
    print_newline ();
    (match Report.of_string (P2p_obs.Json.to_string (Registry.to_json merged)) with
     | Ok report -> print_string (Report.render report)
     | Error msg ->
       Printf.eprintf "p2psim cluster-report: cannot render report: %s\n" msg);
    (match metrics_out with
     | Some path ->
       Export.write_file ~path
         (P2p_obs.Json.to_string (Registry.to_json merged));
       Printf.printf "merged metrics -> %s\n" path
     | None -> ());
    (match trace_out with
     | Some path ->
       Export.write_file ~path
         (P2p_obs.Json.to_string (P2p_obs.Scrape.merged_chrome snapshots));
       Printf.printf "merged chrome trace -> %s (load in ui.perfetto.dev)\n"
         path
     | None -> ());
    let slo_ok =
      match slo with
      | [] -> true
      | specs ->
        Slo.enforce merged ~specs ~print:(fun line ->
            Printf.printf "%s\n" line)
    in
    exit (if slo_ok then 0 else 1)
  in
  let peers_arg, port_base_arg, timeout_arg = aggregator_args in
  let slo_arg =
    Arg.(
      value & opt_all slo_spec []
      & info [ "slo" ] ~docv:"SPEC"
          ~doc:
            "Latency objective such as $(i,lookup:p99<=2000), enforced \
             against the cluster-merged histograms; repeatable; exits \
             non-zero on violation.")
  in
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the merged registry JSON here.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the merged chrome/Perfetto trace here (one track per \
             process, cross-process span trees intact).")
  in
  let term =
    Term.(
      const run $ peers_arg $ port_base_arg $ timeout_arg $ slo_arg
      $ metrics_out_arg $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "cluster-report"
       ~doc:
         "One-shot cluster rollup for a serving ring: scrape every peer, \
          merge histograms bucketwise into cluster-wide percentiles, render \
          the merged report, optionally write merged metrics/trace files, \
          and gate $(b,--slo) specs on the aggregated distribution.")
    term

let () =
  let doc = "hybrid peer-to-peer system simulator (Yang & Yang reproduction)" in
  let info = Cmd.info "p2psim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; churn_cmd; compare_cmd; scenario_cmd; audit_cmd; analyze_cmd;
            report_cmd; serve_cmd; top_cmd; cluster_report_cmd ]))
