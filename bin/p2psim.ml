(* p2psim — command-line driver for the hybrid P2P simulator.

   Subcommands:
     run       build a system, insert items, run lookups, print metrics
     churn     crash a fraction of the population and report the damage
     compare   hybrid vs pure Chord vs pure Gnutella on one workload
     scenario  run a declarative churn/workload script (see Scenario.script_conv)
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
module Data_store = Hybrid_p2p.Data_store
module Auditor = P2p_audit.Auditor
module Checks = P2p_audit.Checks
module Rng = P2p_sim.Rng
module Trace = P2p_sim.Trace
module Registry = P2p_obs.Registry
module Export = P2p_obs.Export
module Report = P2p_obs.Report
module Slo = P2p_obs.Slo
module Metrics = P2p_net.Metrics
module Summary = P2p_stats.Summary
module Keys = P2p_workload.Keys
module Churn = P2p_workload.Churn
module Replication = P2p_replication.Manager
module Scenario = P2p_scenario.Scenario
module Pipeline = P2p_scenario.Pipeline
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

(* A converter accepting what [of_string] reads and [ok] admits. *)
let checked of_string ok pp what =
  let parse s =
    match of_string s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, pp)

let positive_int =
  checked int_of_string_opt (fun n -> n >= 1) Format.pp_print_int "a positive integer"

let positive_float =
  checked float_of_string_opt (fun x -> x > 0.0) Format.pp_print_float "a positive number"

let unit_interval =
  checked float_of_string_opt
    (fun x -> x >= 0.0 && x <= 1.0)
    Format.pp_print_float "a number in [0,1]"

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

(* --- Config flags --- *)

(* A Config flag is its value as an update of the config, tagged with
   the flag's name; [Pipeline.config] turns a command's flags into a
   validated config, so a bad value is a usage error naming its flag,
   raised before any peer is built. *)
let config_flag flag arg set = Term.(const (fun v -> (flag, fun c -> set c v)) $ arg)

(* A Config flag with its own option: [--name], or [-alias]. *)
let config_opt kind default ?(alias = []) name ~docv doc set =
  config_flag ("--" ^ name) Arg.(value & opt kind default & info (alias @ [ name ]) ~docv ~doc) set

let config_term flags =
  let updates =
    List.fold_right (fun f acc -> Term.(const List.cons $ f $ acc)) flags (Term.const [])
  in
  Term.(cli_parse_result (const Pipeline.config $ updates))

let ttl = config_flag "--ttl" ttl_arg (fun c v -> { c with Config.default_ttl = v })

let delta = config_flag "--delta" delta_arg (fun c v -> { c with Config.delta = v })

let placement =
  let parse = function
    | "tpeer" -> Ok Config.Store_at_tpeer
    | "spread" -> Ok Config.Spread_to_neighbors
    | s -> Error (`Msg (Printf.sprintf "unknown placement %S (tpeer|spread)" s))
  in
  let print ppf = function
    | Config.Store_at_tpeer -> Format.fprintf ppf "tpeer"
    | Config.Spread_to_neighbors -> Format.fprintf ppf "spread"
  in
  config_opt (Arg.conv (parse, print)) Config.Spread_to_neighbors "placement" ~docv:"SCHEME"
    "Data placement: tpeer or spread."
    (fun c v -> { c with Config.placement = v })

let bloom_bits =
  config_opt Arg.int 0 "bloom-bits" ~docv:"B"
    "Bits per key of the attenuated Bloom summaries on s-tree edges; keyed floods \
     prune child branches whose summary misses the key (0 disables pruning)."
    (fun c v -> { c with Config.bloom_bits_per_key = v })

let cache =
  config_opt Arg.int 0 "cache" ~docv:"CAP"
    "Per-peer result-cache capacity: successful lookups leave a copy at the \
     requester, serving repeat (Zipf-popular) requests locally (0 disables caching)."
    (fun c v -> { c with Config.cache_capacity = v })

let cache_ttl =
  config_opt Arg.float Config.default.Config.cache_lifetime "cache-ttl" ~docv:"MS"
    "Lifetime of cached lookup results, in simulated milliseconds."
    (fun c v -> { c with Config.cache_lifetime = v })

let replication =
  config_opt Arg.int 0 ~alias:[ "r" ] "replication" ~docv:"R"
    "Replication factor: keep $(docv) redundant copies of every item beyond the \
     primary (0 disables the durability layer)."
    (fun c v -> { c with Config.replication_factor = v })

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
    value
    & opt (some unit_interval) None
    & info [ "trace-sample" ] ~docv:"RATE"
        ~doc:
          "Head-based op sampling rate in [0,1]: each operation either carries \
           its full span tree ($(docv) of them, chosen by a deterministic hash \
           of the op id, so replays trace identical ops) or costs one integer \
           compare per span.  Latency percentiles and $(b,--slo) gates on op \
           kinds always count 100% of operations regardless of the rate.  \
           Defaults to 1 (trace everything) with $(b,--trace-out), and to 0.01 \
           when only $(b,--slo) or $(b,--dump-on-exit) asks for a trace.")

(* The trace options run, scenario and audit share.  A trace exists when
   there is a file to write or [force] asks for one; its ops are sampled
   on the command's seed. *)
type tracing = {
  trace_out : string option;
  make_trace : seed:int -> force:bool -> Trace.t option;
}

(* The sample rate a trace gets without --trace-sample: every op when its
   spans go to a file, 1% when it exists only to feed SLO gates and the
   flight recorder, which count completions, not spans. *)
let default_sample_rate ~trace_out = if trace_out = None then 0.01 else 1.0

let tracing_term =
  let tracing trace_out capacity sample_rate =
    let make_trace ~seed ~force =
      if trace_out = None && not force then None
      else
        let sample_rate =
          Option.value sample_rate ~default:(default_sample_rate ~trace_out)
        in
        Some (Trace.create ~capacity ~sample_rate ~sample_seed:seed ())
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
           $(b,--slo) gate fails, an audit check finds a violation, a traced or \
           audited $(b,run) fails a lookup, or $(b,--dump-on-exit) is set.")

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
    value & opt positive_float 50.0
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
           exit non-zero.  A gate turns tracing on; without $(b,--trace-out) \
           or $(b,--trace-sample) it samples 1% of ops, which leaves op-kind \
           gates exact (they count every completion) while phase_* gates read \
           the sampled spans only.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Dump the metrics registry as JSON to $(docv) (read by $(b,report)).")

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
    & opt (some positive_float) None
    & info [ "audit-interval" ] ~docv:"MS"
        ~doc:
          "Run the online invariant auditor every $(docv) simulated milliseconds; \
           violations are printed, counted under the audit/* metrics, and make the \
           command exit non-zero.")

(* --- run subcommand --- *)

let run_cmd =
  let run seed ps n items lookups (config, anti_entropy) { trace_out; make_trace }
      timeline_out timeline_interval slos metrics_out profile audit_interval
      dump_on_exit dump_dir =
    (* SLO specs over latency/* percentiles need the op-completion
       stream, so a gate also turns tracing on (without a --trace-out
       file nothing is written); same for an exit dump, whose chrome
       trace comes from the retained spans *)
    let trace = make_trace ~seed ~force:(slos <> [] || dump_on_exit) in
    Printf.printf "building %d peers (p_s = %.2f) over a transit-stub underlay...\n%!" n ps;
    let h, rng = Pipeline.build ?trace ~profile ~ps ~seed ~n ~config () in
    let manager = Pipeline.replication h in
    let auditor =
      Option.map (fun interval -> Auditor.create ~interval (H.world h)) audit_interval
    in
    let out =
      { Pipeline.trace_out; metrics_out; profile; timeline_out;
        timeline_interval; slos; dump_dir = Some dump_dir; dump_on_exit; gc_gauges = true }
    in
    let p = Pipeline.attach ?auditor ?replication:manager ~out h in
    Printf.printf "system: %d t-peers, %d s-peers\n%!" (H.t_peer_count h) (H.s_peer_count h);
    let corpus = Pipeline.insert p ~rng ~count:items in
    Printf.printf "inserted %d items\n%!" (H.total_items h);
    Pipeline.lookup p (Keys.lookup_sequence ~rng ~items:corpus ~count:lookups);
    Option.iter
      (fun ms ->
        Printf.printf "anti-entropy window: %.0f ms\n%!" ms;
        Option.iter (fun m -> Pipeline.anti_entropy p m ~ms) manager)
      anti_entropy;
    exit (Pipeline.finish ~gate_lookups:true p ~end_state:Check_final)
  in
  let setup =
    let check config anti_entropy =
      if anti_entropy <> None && config.Config.replication_factor = 0 then
        Error (`Msg "option '--anti-entropy': requires --replication > 0")
      else Ok (config, anti_entropy)
    in
    Term.(
      cli_parse_result
        (const check
        $ config_term
            [ ttl; delta; placement; bloom_bits; cache; cache_ttl; replication ]
        $ anti_entropy_arg))
  in
  let term =
    Term.(
      const run $ seed_arg $ ps_arg $ peers_arg $ items_arg $ lookups_arg $ setup
      $ tracing_term $ timeline_out_arg $ timeline_interval_arg $ slo_arg
      $ metrics_out_arg $ profile_arg $ audit_interval_arg
      $ dump_on_exit_arg $ dump_dir_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Build a hybrid system, insert items, run lookups, print metrics.")
    term

(* --- churn subcommand --- *)

let churn_cmd =
  let run seed ps n crash_fraction config =
    let h, rng = Pipeline.build ~ps ~seed ~n ~config () in
    Option.iter
      (fun m -> Printf.printf "replication: factor %d\n" (Replication.factor m))
      (Pipeline.replication h);
    let p = Pipeline.attach h in
    let corpus = Pipeline.insert p ~rng ~count:1000 in
    let before = H.total_items h in
    let peers = Array.of_list (H.peers h) in
    let victims = Churn.crash_storm ~rng ~population:(Array.length peers) ~fraction:crash_fraction in
    Array.iter (fun i -> H.crash h peers.(i)) victims;
    H.repair h;
    Pipeline.settle p;
    Printf.printf "crashed %d peers; %d/%d items survived\n" (Array.length victims)
      (H.total_items h) before;
    Pipeline.lookup p corpus;
    Printf.printf "lookup failure ratio after storm: %.4f\n"
      (Metrics.failure_ratio (H.metrics h));
    exit (Pipeline.finish p ~end_state:Check_final)
  in
  let fraction_arg =
    Arg.(
      value & opt unit_interval 0.2
      & info [ "crash" ] ~docv:"F" ~doc:"Fraction of peers to crash.")
  in
  let term =
    Term.(
      const run $ seed_arg $ ps_arg $ peers_arg $ fraction_arg $ config_term [ replication ])
  in
  Cmd.v (Cmd.info "churn" ~doc:"Crash a fraction of peers and measure the damage.") term

(* --- compare subcommand: hybrid vs pure baselines --- *)

let compare_cmd =
  let run seed n items lookups config =
    let ttl = config.Config.default_ttl in
    (* one workload, drawn from [seed], on a hybrid built at [ps] *)
    let hybrid label ~ps ~config =
      let h, _ = Pipeline.build ~ps ~seed ~n ~config () in
      let p = Pipeline.attach h in
      let rng = Rng.create seed in
      let corpus = Pipeline.insert p ~rng ~count:items in
      let targets = Keys.lookup_sequence ~rng ~items:corpus ~count:lookups in
      Pipeline.lookup p targets;
      let hm = H.metrics h in
      Printf.printf "%-22s failure %6.4f   mean hops %6.2f   connum/lookup %8.1f\n" label
        (Metrics.failure_ratio hm)
        (Summary.mean (Metrics.lookup_hops hm))
        (float_of_int (Metrics.connum hm) /. float_of_int lookups);
      (corpus, targets)
    in
    (* the paper's sweet spot, then its p_s = 0 end: every peer a t-peer *)
    let corpus, targets = hybrid "hybrid (ps=0.7)" ~ps:0.7 ~config in
    ignore (hybrid "pure Chord (ps=0)" ~ps:0.0 ~config : Keys.item array * Keys.item array);
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
    Term.(const run $ seed_arg $ peers_arg $ items_arg $ lookups_arg $ config_term [ ttl ])
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Hybrid vs pure Chord vs pure Gnutella on one workload.")
    term


(* --- scenario subcommand --- *)

let scenario_cmd =
  let run seed (n, script) config assert_no_loss audit_interval { trace_out; make_trace }
      metrics_out profile =
    let trace = make_trace ~seed ~force:false in
    let h, _ = Pipeline.build ?trace ~profile ~seed ~n ~config () in
    let auditor =
      Option.map (fun interval -> Auditor.create ~interval (H.world h)) audit_interval
    in
    let p =
      Pipeline.attach ?auditor
        ~out:{ Pipeline.no_outputs with trace_out; metrics_out; profile }
        h
    in
    let report = Scenario.exec p ~seed ~script in
    Format.printf "%a@." Scenario.pp_report report;
    exit
      (Pipeline.finish p ~end_state:(Reported report.Scenario.invariants)
         ?inserted:(if assert_no_loss then Some report.Scenario.inserted else None))
  in
  let script_arg =
    Arg.(
      value
      & opt Scenario.script_conv
          Scenario.
            [ Join_many (80, 0.7); Insert_items 200; Settle; Crash_fraction 0.2; Repair;
              Lookup_items 200 ]
      & info [ "script" ] ~docv:"SCRIPT"
          ~doc:
            "Whitespace-separated actions: join:N:PS, leave, crash, crash:F, \
             repair, insert:N, lookup:N, settle, advance:MS, anti-entropy:MS.")
  in
  (* Every join takes a fresh host of the --peers underlay. *)
  let sized_script =
    let check n script =
      let hosts = P2p_topology.Transit_stub.node_count (Pipeline.topology_for n) in
      let joins = Scenario.joins script in
      if joins <= hosts then Ok (n, script)
      else
        Error
          (`Msg
             (Printf.sprintf
                "option '--script': joins %d peers, but the underlay of --peers %d has \
                 %d hosts"
                joins n hosts))
    in
    Term.(cli_parse_result (const check $ peers_arg $ script_arg))
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
      const run $ seed_arg $ sized_script $ config_term [ replication ]
      $ assert_no_loss_arg $ audit_interval_arg $ tracing_term $ metrics_out_arg
      $ profile_arg)
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run a declarative churn/workload script and report.")
    term

(* --- audit subcommand --- *)

(* Deliberate corruption of a live system, for demonstrating (and testing)
   that the auditor catches real damage.  Each injection violates exactly
   one invariant class. *)
type injection = No_injection | Degree | Ring | Placement | Replica_drop

let injections =
  [ ("none", No_injection); ("degree", Degree); ("ring", Ring); ("placement", Placement);
    ("replication", Replica_drop) ]

let inject_corruption h ~config = function
  | No_injection -> ()
  | Degree ->
    (* wire unregistered stowaway children onto a root until its tree
       degree exceeds delta *)
    let w = H.world h in
    let arr = World.t_peers w in
    if Array.length arr = 0 then failwith "no t-peer to corrupt";
    let root = arr.(0) in
    let needed = config.Config.delta + 1 - List.length root.Peer.children in
    for i = 1 to max 1 needed do
      let child =
        Peer.make ~log:(World.change_log w) ~interner:(World.interner w) ~host:(-i) ~p_id:root.Peer.p_id
          ~role:Peer.S_peer ~link_capacity:10.0 ()
      in
      Peer.attach_child ~parent:root ~child
    done
  | Ring ->
    let w = H.world h in
    let arr = World.t_peers w in
    if Array.length arr < 2 then failwith "need at least 2 t-peers to break the ring";
    Peer.set_succ arr.(0) (Some arr.(0))
  | Placement ->
    (* plant an item whose route_id falls outside its holder's segment *)
    let w = H.world h in
    let arr = World.t_peers w in
    if Array.length arr < 2 then failwith "need at least 2 t-peers to misplace an item";
    let victim = arr.(0) in
    let outside = Peer.segment_left victim in
    Data_store.insert_routed victim.Peer.store ~route_id:outside
      ~key:"audit-misplaced" ~value:"x"
  | Replica_drop ->
    (* silently drop one replica copy: the replication_factor check must
       flag the under-replicated item, and a heal pass must restore it;
       the audit term has checked that replication is on *)
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


let audit_cmd =
  let run seed ps n items lookups interval (inject, config) checks { trace_out; make_trace }
      metrics_out =
    let trace = make_trace ~seed ~force:false in
    Printf.printf "building %d peers (p_s = %.2f)...\n%!" n ps;
    let h, rng = Pipeline.build ?trace ~ps ~seed ~n ~config () in
    let manager = Pipeline.replication h in
    let checks = if checks = [] then Checks.all else checks in
    let a = Auditor.create ~interval ~checks (H.world h) in
    let p =
      Pipeline.attach ~auditor:a
        ~out:{ Pipeline.no_outputs with trace_out; metrics_out }
        h
    in
    let corpus = Pipeline.insert p ~rng ~count:items in
    Pipeline.lookup p (Keys.lookup_sequence ~rng ~items:corpus ~count:lookups);
    (try inject_corruption h ~config inject
     with Failure msg ->
       Printf.eprintf "p2psim audit: %s\n" msg;
       exit 2);
    if inject <> No_injection then
      Printf.printf "injected corruption: %s\n"
        (fst (List.find (fun (_, kind) -> kind = inject) injections));
    (* two audit periods catch whatever state the run ended in; a tick
       due at the window's end runs too *)
    Pipeline.advance p ~ms:(2.0 *. interval);
    if Auditor.due a then ignore (Auditor.tick a : Checks.snapshot);
    (* for the replication demo, close the loop: a heal pass restores the
       dropped copy and a final tick shows the check going quiet again *)
    (match (manager, inject) with
     | Some m, Replica_drop ->
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
    exit (Pipeline.finish p ~end_state:Audit_only)
  in
  let interval_arg =
    Arg.(
      value & opt positive_float 250.0
      & info [ "interval" ] ~docv:"MS" ~doc:"Audit cadence in simulated milliseconds.")
  in
  let inject_arg =
    Arg.(
      value
      & opt (enum injections) No_injection
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
    let parse name =
      Option.to_result (Checks.find name)
        ~none:
          (`Msg
             (Printf.sprintf "unknown check %S (have: %s)" name (String.concat ", " Checks.names)))
    in
    let print ppf c = Format.pp_print_string ppf (Checks.check_name c) in
    Arg.(
      value
      & opt_all (conv (parse, print)) []
      & info [ "check" ] ~docv:"NAME"
          ~doc:"Run only this catalogue check (repeatable; default: all).")
  in
  let setup =
    let check inject config =
      if inject = Replica_drop && config.Config.replication_factor = 0 then
        Error (`Msg "option '--inject': replication requires --replication > 0")
      else Ok (inject, config)
    in
    Term.(
      cli_parse_result
        (const check $ inject_arg $ config_term [ bloom_bits; cache; replication ]))
  in
  let term =
    Term.(
      const run $ seed_arg $ ps_arg $ peers_arg $ items_arg $ lookups_arg $ interval_arg
      $ setup $ checks_arg $ tracing_term $ metrics_out_arg)
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Build a system, run a workload under the online invariant auditor, and exit \
          non-zero if any violation (of either severity) is found.  $(b,--inject) \
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

(* The metrics document to render: one file's own (a [serve] scrape
   snapshot's is unwrapped), or several files merged — counters sum,
   gauges keep the maximum, log histograms merge bucketwise.  A single
   file is not merged, so its Summary-backed histograms (which the merge
   cannot rebuild) stay visible. *)
let report_doc paths =
  let rec decode acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest -> (
      match
        Result.bind (P2p_obs.Json.parse (Export.read_file path))
          P2p_obs.Scrape.metrics_of_json
      with
      | Ok doc -> decode (doc :: acc) rest
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  in
  match decode [] paths with
  | Ok [ doc ] -> Ok doc
  | Ok docs -> Ok (Registry.doc (P2p_obs.Scrape.merge docs))
  | Error _ as e -> e

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
       match report_doc paths with
       | Error msg ->
         Printf.eprintf "p2psim report: cannot parse metrics: %s\n" msg;
         exit 1
       | Ok doc ->
         if List.length paths > 1 then
           Printf.printf "merged report over %d metrics files\n\n"
             (List.length paths);
         print_string (Report.render doc)));
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

(* --- serve, top and cluster-report: a live localhost ring --- *)

let ring_peers_arg =
  Arg.(
    value & opt positive_int 8
    & info [ "peers" ] ~docv:"N"
        ~doc:"Ring size: the worker processes $(b,serve) forks and the others poll.")

let port_base_arg =
  Arg.(
    value & opt int 4700
    & info [ "port-base" ] ~docv:"PORT"
        ~doc:
          "First TCP port; worker $(i,i) listens on 127.0.0.1:PORT+$(i,i) and the \
           client on PORT+N.")

let ring_slo_arg =
  Arg.(
    value & opt_all slo_spec []
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:
          "Latency objective such as $(i,lookup:p99<=2000), enforced against the \
           cluster-merged histograms ($(b,serve): in smoke mode); repeatable; any \
           violation makes the exit code non-zero.")

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
            "Directory receiving one health-$(i,node).jsonl per worker: a \
             scrape snapshot (self-audit, ring and wire counters) every 500 ms.")
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
      const run $ ring_peers_arg $ port_base_arg $ smoke_arg $ inserts_arg
      $ lookups_arg $ ready_timeout_arg $ dump_dir_arg $ sample_rate_arg
      $ sample_seed_arg $ ring_slo_arg $ linger_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Fork N OS processes that bootstrap a live ring on localhost over \
          real TCP sockets, serve inserts/lookups, answer observability \
          scrapes, and write periodic JSONL health dumps per process.")
    term

let timeout_arg =
  Arg.(
    value & opt float 5.
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"How long to wait for scrape replies each round.")

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
      const run $ ring_peers_arg $ port_base_arg $ timeout_arg $ interval_arg
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
    let _, slo_ok =
      P2p_transport.Serve.rollup ~report:true ?metrics_out ?trace_out ~prefix:""
        ~slo snapshots
    in
    exit (if slo_ok then 0 else 1)
  in
  let term =
    Term.(
      const run $ ring_peers_arg $ port_base_arg $ timeout_arg $ ring_slo_arg
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
