(* Hot-path speed proof (SCALING.md, "hot-path speed pass").

   Two configurations of the same 10k-peer workload, isolating the
   cost of underlay routing:

     link_state  precomputed link-state tables on a transit-stub
                 underlay — the runtime router of every CLI and figure run
     synthetic   the fake uniform-latency underlay — the routing cost
                 ceiling the real graph is measured against

   Per configuration: events/sec, minor words allocated per event
   (Gc.quick_stat deltas around the workload), lookup p50/p99 from the
   exact op-completion histograms, recall and invariants.

   A third, engine-only leg measures the event queue at depth: K
   concurrent delivery chains for K = 100, 2,000 and 20,000, the depths
   between a shallow replay and a 1,000-peer run with 20-40k messages in
   flight.  Per depth: ns/event (CPU time), and minor and promoted words
   per event.

   Output: BENCH_hotpath.json.  Gates (CI runs [--smoke]):
     - recall 1.0 in every configuration
     - link_state stays under an absolute minor-words/event ceiling (the
       allocation-regression check: an accidental boxing on the hop path
       shows up here long before it shows up in wall clock)
     - events/sec floor as in the scale bench
     - every deep-queue depth stays under an absolute minor-words/event
       ceiling (deterministic; its ns/event is recorded, not gated)
     - every --slo spec against the link_state configuration's registry *)

module H = Hybrid_p2p.Hybrid
module Config = Hybrid_p2p.Config
module Data_ops = Hybrid_p2p.Data_ops
module Routing = P2p_topology.Routing
module Engine = P2p_sim.Engine
module Trace = P2p_sim.Trace
module Rng = P2p_sim.Rng
module Metrics = P2p_net.Metrics
module Registry = P2p_obs.Registry
module Gc_stats = P2p_obs.Gc_stats
module Spans = P2p_obs.Spans
module Log_hist = P2p_obs.Log_hist
module Slo = P2p_obs.Slo
module Json = P2p_obs.Json
module Checks = P2p_audit.Checks

let n_peers = 10_000
let telemetry_sample_rate = 0.01
let min_events_per_s = 10_000.0

(* Allocation-regression ceiling for the link_state configuration, in
   minor words per executed event.  The residue is protocol payload
   closures and sampled-trace spans: the event queue recycles entries
   and routing queries allocate no tuples.  The ceiling leaves headroom
   for workload drift while still catching a reintroduced per-hop
   handle/closure/boxing regression, which costs hundreds of words per
   event at this fan-out. *)
let max_minor_words_per_event = 300.0

(* Allocation ceiling for the deep-queue leg, in minor words per event.
   The residue is the engine's event record, the chain's boxed delay and
   RNG state, about 15 words; a queue that allocated per insertion or per
   sift step would cross it. *)
let max_deep_minor_words_per_event = 32.0

let deep_depths = [ 100; 2_000; 20_000 ]

type result = {
  name : string;
  routing : string;
  items : int;
  lookups : int;
  found : int;
  events : int;
  wall_s : float;
  events_per_s : float;
  minor_words_per_event : float;
  p50_ms : float option;
  p99_ms : float option;
  stored_total : int;
  invariant_error : string option;
}

let make_routing ~seed = function
  | `Synthetic -> (Routing.synthetic ~nodes:n_peers ~latency:5.0, "synthetic")
  | `Link_state -> (Scale.link_state_routing ~seed n_peers, "link_state")

let measure ~seed ~name ~routing_mode ~items ~lookups () =
  let routing, routing_label = make_routing ~seed routing_mode in
  let config = { Config.default with Config.use_fingers_for_data = true } in
  let capacity = max 100_000 (60 * lookups) in
  let trace =
    Trace.create ~capacity ~sample_rate:telemetry_sample_rate
      ~sample_seed:seed ()
  in
  let h = H.create ~seed ~routing ~config ~trace () in
  let rng = Rng.create (seed + 17) in
  let peers, _t_count = Scale.populate h ~rng ~n:n_peers in
  let reg = Metrics.registry (H.metrics h) in
  let gc_gauges = Gc_stats.create reg in
  let key i = Printf.sprintf "item-%06d" i in
  let e = H.engine h in
  let ev0 = Engine.events_executed e in
  let g0 = Gc.quick_stat () in
  let w0 = Sys.time () in
  for i = 0 to items - 1 do
    let from = peers.(Rng.int rng n_peers) in
    H.insert h ~from ~key:(key i) ~value:(Printf.sprintf "v%d" i) ();
    H.run h
  done;
  let found = ref 0 in
  for _ = 1 to lookups do
    let from = peers.(Rng.int rng n_peers) in
    let i = Rng.int rng items in
    H.lookup h ~from ~key:(key i)
      ~on_result:(function
        | Data_ops.Found _ -> incr found
        | Data_ops.Timed_out -> ())
      ();
    H.run h
  done;
  let wall_s = Sys.time () -. w0 in
  let g1 = Gc.quick_stat () in
  let events = Engine.events_executed e - ev0 in
  let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
  Gc_stats.update gc_gauges;
  Spans.record reg (H.trace h);
  let hist =
    Registry.log_histogram reg ~subsystem:"latency" ~name:"lookup_total_ms"
  in
  let p50_ms, p99_ms =
    if Log_hist.count hist > 0 then
      ( Some (Log_hist.percentile hist 50.0),
        Some (Log_hist.percentile hist 99.0) )
    else (None, None)
  in
  let r =
    {
      name;
      routing = routing_label;
      items;
      lookups;
      found = !found;
      events;
      wall_s;
      events_per_s =
        (if wall_s > 0.0 then float_of_int events /. wall_s else 0.0);
      minor_words_per_event =
        (if events > 0 then minor_words /. float_of_int events else 0.0);
      p50_ms;
      p99_ms;
      stored_total = H.total_items h;
      invariant_error =
        (match Checks.(to_result (final (H.world h))) with
         | Ok () -> None
         | Error m -> Some m);
    }
  in
  (r, reg)

type depth_result = {
  chains : int;
  deep_events : int;
  ns_per_event : float;
  deep_minor_words_per_event : float;
  promoted_words_per_event : float;
}

(* [chains] delivery chains on a bare engine: each event schedules its
   chain's next one after a seeded delay, as a message hop schedules the
   next hop, until [events] have run.  The queue holds [chains] events
   throughout, all fire-and-forget, as underlay deliveries are. *)
let deep_queue ~seed ~chains ~events =
  let e = Engine.create ~seed () in
  let rng = Rng.create seed in
  let remaining = ref (events - chains) in
  let rec deliver () =
    if !remaining > 0 then begin
      decr remaining;
      Engine.schedule_detached e ~label:None ~delay:(Rng.float rng 100.0) deliver
    end
  in
  for _ = 1 to chains do
    Engine.schedule_detached e ~label:None ~delay:(Rng.float rng 100.0) deliver
  done;
  let g0 = Gc.quick_stat () in
  let w0 = Sys.time () in
  Engine.run e;
  let wall = Sys.time () -. w0 in
  let g1 = Gc.quick_stat () in
  let n = float_of_int (Engine.events_executed e) in
  {
    chains;
    deep_events = Engine.events_executed e;
    ns_per_event = wall *. 1e9 /. n;
    deep_minor_words_per_event = (g1.Gc.minor_words -. g0.Gc.minor_words) /. n;
    promoted_words_per_event = (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. n;
  }

let print_depth d =
  Printf.printf "  deep K=%-6d %8.1f ns/ev  %6.2f minor w/ev  %6.2f promoted w/ev\n%!"
    d.chains d.ns_per_event d.deep_minor_words_per_event d.promoted_words_per_event

let depth_json d =
  Json.Obj
    [
      ("chains", Json.Int d.chains);
      ("events", Json.Int d.deep_events);
      ("ns_per_event", Json.Float d.ns_per_event);
      ("minor_words_per_event", Json.Float d.deep_minor_words_per_event);
      ("promoted_words_per_event", Json.Float d.promoted_words_per_event);
    ]

let print_result r =
  Printf.printf
    "  %-12s %8.0f ev/s  %6.1f minor w/ev  found %d/%d  p50 %s p99 %s\n%!"
    r.name r.events_per_s r.minor_words_per_event r.found
    r.lookups
    (match r.p50_ms with Some f -> Printf.sprintf "%.1fms" f | None -> "-")
    (match r.p99_ms with Some f -> Printf.sprintf "%.1fms" f | None -> "-")

let opt_float = function Some f -> Json.Float f | None -> Json.Null

let result_json r =
  Json.Obj
    [
      ("name", Json.String r.name);
      ("routing", Json.String r.routing);
      ("peers", Json.Int n_peers);
      ("items", Json.Int r.items);
      ("lookups", Json.Int r.lookups);
      ("found", Json.Int r.found);
      ("stored_total", Json.Int r.stored_total);
      ("events", Json.Int r.events);
      ("workload_cpu_s", Json.Float r.wall_s);
      ("events_per_s", Json.Float r.events_per_s);
      ("minor_words_per_event", Json.Float r.minor_words_per_event);
      ("lookup_p50_ms", opt_float r.p50_ms);
      ("lookup_p99_ms", opt_float r.p99_ms);
      ( "invariants",
        match r.invariant_error with
        | None -> Json.String "ok"
        | Some m -> Json.String m );
    ]

let run ~smoke () =
  let seed = 42 in
  Printf.printf "== hotpath%s ==\n%!" (if smoke then " (smoke)" else "");
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let items, lookups =
    if smoke then (2_000, 2_000) else Scale.sized n_peers
  in
  let ls, ls_reg =
    measure ~seed ~name:"link_state" ~routing_mode:`Link_state ~items ~lookups ()
  in
  print_result ls;
  let syn, _ =
    measure ~seed ~name:"synthetic" ~routing_mode:`Synthetic ~items ~lookups ()
  in
  print_result syn;
  let deep_events = if smoke then 400_000 else 2_000_000 in
  let deep =
    List.map (fun chains -> deep_queue ~seed ~chains ~events:deep_events) deep_depths
  in
  List.iter print_depth deep;
  let all = [ ls; syn ] in
  (* recall: every configuration must find every looked-up item *)
  List.iter
    (fun r ->
      if r.found <> r.lookups then
        fail "%s: recall %d/%d (expected 1.0)" r.name r.found r.lookups;
      match r.invariant_error with
      | None -> ()
      | Some m -> fail "%s: invariants violated: %s" r.name m)
    all;
  if ls.minor_words_per_event > max_minor_words_per_event then
    fail "allocation regression: %.1f minor words/event exceeds ceiling %.1f"
      ls.minor_words_per_event max_minor_words_per_event;
  List.iter
    (fun d ->
      if d.deep_minor_words_per_event > max_deep_minor_words_per_event then
        fail "deep queue K=%d: %.1f minor words/event exceeds ceiling %.1f" d.chains
          d.deep_minor_words_per_event max_deep_minor_words_per_event)
    deep;
  if ls.events_per_s < min_events_per_s then
    fail "events/sec %.0f below floor %.0f" ls.events_per_s min_events_per_s;
  (* latency SLO gates (--slo) against the link_state configuration *)
  (match !Experiments.slo_specs with
  | [] -> ()
  | specs ->
    if
      not
        (Slo.enforce ls_reg ~specs
           ~print:(fun line -> Printf.printf "  [slo] %s\n%!" line))
    then fail "latency SLO violated (see lines above)");
  let doc =
    Json.Obj
      [
        ("bench", Json.String "hotpath");
        ("smoke", Json.Bool smoke);
        ("seed", Json.Int seed);
        ("peers", Json.Int n_peers);
        ("telemetry_sample_rate", Json.Float telemetry_sample_rate);
        ("configs", Json.List (List.map result_json all));
        ("deep_queue", Json.List (List.map depth_json deep));
        ( "gate",
          Json.Obj
            [
              ("max_minor_words_per_event", Json.Float max_minor_words_per_event);
              ("min_events_per_s", Json.Float min_events_per_s);
              ( "max_deep_minor_words_per_event",
                Json.Float max_deep_minor_words_per_event );
              ( "failures",
                Json.List (List.rev_map (fun s -> Json.String s) !failures) );
            ] );
      ]
  in
  Scale.write_json ~path:"BENCH_hotpath.json" doc;
  match !failures with
  | [] -> Printf.printf "hotpath gate: PASS\n%!"
  | fs ->
    List.iter (fun f -> Printf.printf "hotpath gate FAIL: %s\n%!" f)
      (List.rev fs);
    exit 1
