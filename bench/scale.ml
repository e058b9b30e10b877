(* Million-peer scale sweep (SCALING.md).

   Measures raw engine throughput (events/sec), minor words allocated
   per event, memory footprint (live heap + process high-water RSS) and
   lookup latency percentiles over populations of 10k / 100k / 1M peers.

   Every point runs on a transit-stub graph routed by the link-state
   router, the runtime router of every CLI and figure run: the paper's
   4x5 backbone with 25-node stub domains, as many as it takes to cover
   the population.

   The swept populations are built directly through the membership
   oracle — the paper's centralized server — rather than through
   protocol joins: we register peers, wire the ring once with
   [World.stabilize_ring], and attach s-peers breadth-first under the
   degree constraint δ, exactly the end state the join protocol
   converges to.  The measured workload (inserts and lookups) then runs
   through the genuine protocol message paths.

   Protocol joins no longer cost O(n^2): a t-join recomputes only the
   finger tables its walks read, and the ring and the size table change
   by one entry per join.  `p2psim run --peers 5000 --ps 0.6 --items 1
   --lookups 1 --profile` (2,026 t-peers) spends 6.2 s of message CPU
   when every t-join refreshes every table, about 0.2 s now (one core
   of a shared 2-vCPU Linux VM).  A protocol-built leg measures that path:
   5,000 peers through [H.grow] at s_fraction 0.6 on the same underlay
   shape, gated on the deterministic count of finger tables recomputed.

   An engine-only leg measures the event queue at depth: K concurrent
   delivery chains for K = 100, 2,000 and 20,000, the depths between a
   shallow replay and a 1,000-peer run with 20-40k messages in flight.

   Output: BENCH_scale.json.  [run ~smoke:true] does the 10k points, the
   protocol-built leg and the deep-queue leg only — the CI
   configuration.  The run exits 1 when any gate fails:
     - recall 1.0 and clean invariants on every point
     - an events/sec floor on the full-tracing and the sampled 10k
       points
     - the median telemetry overhead over alternating off/sampled pairs
       (full tracing's overhead, over off/full pairs, is reported as a
       median with its min-max, not gated), and telemetry leaving the
       event schedule and outcomes unchanged
     - the sampled point's minor words/event under an absolute ceiling
       (the allocation-regression check)
     - every deep-queue depth under an absolute minor-words/event
       ceiling (deterministic; its ns/event is recorded, not gated)
     - every --slo spec against the sampled point's registry
     - the finger-refresh count of the protocol-built leg *)

module H = Hybrid_p2p.Hybrid
module World = Hybrid_p2p.World
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config
module Data_ops = Hybrid_p2p.Data_ops
module Id_space = P2p_hashspace.Id_space
module Routing = P2p_topology.Routing
module Engine = P2p_sim.Engine
module Trace = P2p_sim.Trace
module Rng = P2p_sim.Rng
module Metrics = P2p_net.Metrics
module Registry = P2p_obs.Registry
module Spans = P2p_obs.Spans
module Log_hist = P2p_obs.Log_hist
module Json = P2p_obs.Json
module Checks = P2p_audit.Checks

let s_fraction = 0.8

(* CI floor: an order-of-magnitude regression guard, not a race.  The
   seed machine drains well over 100k events/sec at the 10k point. *)
let smoke_min_events_per_s = 10_000.0

(* Telemetry overhead gate: sampled tracing at this rate must keep at
   least this fraction of the tracing-off throughput.  A leg times only
   ~40k events (tens of ms), and on a shared host back-to-back legs
   differ by ±25%.  So each of [overhead_pairs] pairs runs its off and
   sampled legs side by side, alternating every [overhead_chunk]
   workload operations, and the gate takes the median of the pairs'
   ratios. *)
let telemetry_sample_rate = 0.01
let min_sampled_throughput_ratio = 0.9
let overhead_pairs = 5
let overhead_chunk = 100

(* Full tracing's overhead at the same point, over [overhead_pairs]
   pairs of whole off and full legs run back to back, the order
   alternating from pair to pair.  Its chunks are not interleaved with
   the off leg's: full tracing allocates several times what an off leg
   does, and interleaved, the off leg would pay much of the major GC
   work that allocation schedules. *)

(* Allocation-regression ceiling for the sampled point, in minor
   words per executed event at [telemetry_sample_rate].  The residue is
   protocol payload closures and sampled-trace spans: the event queue
   recycles entries and routing queries allocate no tuples.  The ceiling
   is 1.5x the 76 words measured with the queue holding bare thunks:
   headroom for workload drift, while a reintroduced per-event record,
   per-timer closure or per-hop boxing crosses it. *)
let max_minor_words_per_event = 114.0

(* Allocation ceiling for the deep-queue leg, in minor words per event.
   The residue is the chain's boxed delay, RNG state and boxed event
   time, 11.8 words; the ceiling is 1.5x that.  A queue that allocated
   per insertion or per sift step, or an event record around each
   thunk, would cross it. *)
let max_deep_minor_words_per_event = 17.7

let deep_depths = [ 100; 2_000; 20_000 ]

type point = {
  n : int;
  telemetry : string;  (* "off" | "sampled-<rate>" | "full" *)
  t_count : int;
  items : int;
  lookups : int;
  found : int;
  events : int;
  build_s : float;
  wall_s : float;
  events_per_s : float;
  minor_words_per_event : float;
  live_bytes : int;
  bytes_per_peer : float;
  vm_rss_kb : int option;
  vm_hwm_kb : int option;
  p50_ms : float option;
  p99_ms : float option;
  hops_mean : float;
  hops_max : float;
  stored_total : int;
  invariant_error : string option;
}

(* ------------------------------------------------------------------ *)
(* Process memory                                                      *)

let proc_status_kb field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = field ^ ":" in
      let plen = String.length prefix in
      let rec scan () =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            None
        | line ->
            if String.length line > plen && String.sub line 0 plen = prefix
            then begin
              close_in ic;
              let rest = String.sub line plen (String.length line - plen) in
              try Scanf.sscanf rest " %d" (fun kb -> Some kb)
              with Scanf.Scan_failure _ | Failure _ -> None
            end
            else scan ()
      in
      scan ()

(* ------------------------------------------------------------------ *)
(* Oracle construction                                                 *)

(* Attach points for one s-network tree: a FIFO of (node, free slots).
   Popping the front and re-queueing both parent (if slots remain) and
   child grows the tree level-by-level, so depth stays O(log_δ size). *)
let populate h ~rng ~n =
  let w = H.world h in
  let interner = World.interner w in
  let cfg = H.config h in
  let delta = cfg.Config.delta in
  let t_count = max 1 (n - int_of_float (s_fraction *. float_of_int n)) in
  let used = Hashtbl.create (2 * t_count) in
  let rec fresh_p_id () =
    let id = Rng.int rng Id_space.size in
    if Hashtbl.mem used id then fresh_p_id ()
    else begin
      Hashtbl.add used id ();
      id
    end
  in
  let make_t host =
    let p =
      Peer.make ~log:(World.change_log w) ~interner ~host ~p_id:(fresh_p_id ()) ~role:Peer.T_peer
        ~link_capacity:1.0 ()
    in
    Peer.set_t_home p (Some p);
    World.register w p;
    p
  in
  let peers = Array.make n (make_t 0) in
  for host = 1 to t_count - 1 do
    peers.(host) <- make_t host
  done;
  World.stabilize_ring w;
  let roots = Array.sub peers 0 t_count in
  let slots =
    Array.map
      (fun r ->
        let q = Queue.create () in
        Queue.push (r, delta) q;
        q)
      roots
  in
  let sizes = Array.make t_count 0 in
  for host = t_count to n - 1 do
    let ri = (host - t_count) mod t_count in
    let q = slots.(ri) in
    let parent, free = Queue.pop q in
    let child =
      Peer.make ~log:(World.change_log w) ~interner ~host ~p_id:0 ~role:Peer.S_peer ~link_capacity:1.0
        ()
    in
    Peer.attach_child ~parent ~child;
    World.register w child;
    if free > 1 then Queue.push (parent, free - 1) q;
    (* an s-peer's cp edge uses one of its δ slots *)
    Queue.push (child, delta - 1) q;
    sizes.(ri) <- sizes.(ri) + 1;
    peers.(host) <- child
  done;
  Array.iteri (fun ri r -> World.set_snet_size w r sizes.(ri)) roots;
  (peers, t_count)

(* ------------------------------------------------------------------ *)
(* One sweep point                                                     *)

let sized n =
  (* items / lookups scale sub-linearly: the workload exercises the
     protocol paths; population size is what is under test *)
  let items = min 20_000 (max 2_000 (n / 50)) in
  let lookups = min 10_000 (max 2_000 (n / 100)) in
  (items, lookups)

(* A transit-stub topology with at least [n] nodes: the fixed 4x5
   backbone of the paper's topologies, 25-node stub domains, and as many
   stub domains per transit node as it takes to cover [n]. *)
let transit_stub_params n =
  let transit = 4 * 5 in
  let stub_nodes = 25 in
  let per_node =
    max 1 ((n - transit + (transit * stub_nodes) - 1) / (transit * stub_nodes))
  in
  {
    P2p_topology.Transit_stub.default_params with
    P2p_topology.Transit_stub.transit_domains = 4;
    transit_nodes = 5;
    stub_domains_per_node = per_node;
    stub_nodes;
  }

let link_state_routing ~seed n =
  let topo =
    P2p_topology.Transit_stub.generate ~rng:(Rng.create (seed + 3)) (transit_stub_params n)
  in
  Routing.create topo.P2p_topology.Transit_stub.graph

(* One sweep point in three steps, so that two points can run side by
   side: [start_leg] builds and populates the system, [advance] runs the
   next [ops] workload operations (every insert, then every lookup) and
   charges their CPU time and minor words to the leg, and [finish_leg]
   reads the results. *)
type leg = {
  l_n : int;
  l_h : H.t;
  l_peers : Peer.t array;
  l_rng : Rng.t;
  l_items : int;
  l_lookups : int;
  l_t_count : int;
  l_build_s : float;
  l_telemetry : string;
  l_ev0 : int;
  mutable l_next : int;  (* workload operations run so far *)
  mutable l_found : int;
  mutable l_cpu_s : float;
  mutable l_minor_words : float;
}

let start_leg ?(telemetry = `Full) ~seed ~n () =
  let items, lookups = sized n in
  let routing = link_state_routing ~seed n in
  (* Ring buffer sized so the lookup phase stays fully traced. *)
  let capacity = max 100_000 (60 * lookups) in
  let trace, telemetry_label =
    match telemetry with
    | `Off -> (None, "off")
    | `Sampled rate ->
      ( Some (Trace.create ~capacity ~sample_rate:rate ~sample_seed:seed ()),
        Printf.sprintf "sampled-%g" rate )
    | `Full -> (Some (Trace.create ~capacity ()), "full")
  in
  let h = H.create ~seed ~routing ?trace () in
  let rng = Rng.create (seed + 17) in
  let t0 = Sys.time () in
  let peers, t_count = populate h ~rng ~n in
  let build_s = Sys.time () -. t0 in
  {
    l_n = n;
    l_h = h;
    l_peers = peers;
    l_rng = rng;
    l_items = items;
    l_lookups = lookups;
    l_t_count = t_count;
    l_build_s = build_s;
    l_telemetry = telemetry_label;
    l_ev0 = Engine.events_executed (H.engine h);
    l_next = 0;
    l_found = 0;
    l_cpu_s = 0.0;
    l_minor_words = 0.0;
  }

let leg_done l = l.l_next >= l.l_items + l.l_lookups

let key i = Printf.sprintf "item-%06d" i

let advance l ~ops =
  let stop = l.l_next + min ops (l.l_items + l.l_lookups - l.l_next) in
  (* [Gc.minor_words] is exact, where [Gc.quick_stat]'s minor count may
     advance only at collections, a whole minor heap at a time *)
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  while l.l_next < stop do
    let from = l.l_peers.(Rng.int l.l_rng l.l_n) in
    if l.l_next < l.l_items then
      H.insert l.l_h ~from ~key:(key l.l_next) ~value:(Printf.sprintf "v%d" l.l_next) ()
    else begin
      let i = Rng.int l.l_rng l.l_items in
      H.lookup l.l_h ~from ~key:(key i)
        ~on_result:(function
          | Data_ops.Found _ -> l.l_found <- l.l_found + 1
          | Data_ops.Timed_out -> ())
        ()
    end;
    H.run l.l_h;
    l.l_next <- l.l_next + 1
  done;
  l.l_cpu_s <- l.l_cpu_s +. (Sys.time () -. t0);
  l.l_minor_words <- l.l_minor_words +. (Gc.minor_words () -. w0)

(* Two legs over the same workload in alternating chunks of
   [overhead_chunk] operations: both see the same host conditions, so
   their throughput ratio is not at the mercy of which one a noisy
   neighbour happened to slow down.  The leg that runs first swaps every
   round: on the transit-stub graph a fixed order costs the second leg a
   few percent. *)
let rec interleave a b =
  if not (leg_done a && leg_done b) then begin
    advance a ~ops:overhead_chunk;
    advance b ~ops:overhead_chunk;
    interleave b a
  end

let finish_leg l =
  let h = l.l_h and n = l.l_n in
  let events = Engine.events_executed (H.engine h) - l.l_ev0 in
  let events_per_s =
    if l.l_cpu_s > 0.0 then float_of_int events /. l.l_cpu_s else 0.0
  in
  (* Lookup latency percentiles from the exact op-completion histograms
     (all ops counted at every sample rate; empty with tracing off). *)
  let reg = Metrics.registry (H.metrics h) in
  if Trace.enabled (H.trace h) then Spans.record reg (H.trace h);
  let hist =
    Registry.log_histogram reg ~subsystem:"latency" ~name:"lookup_total_ms"
  in
  let p50_ms, p99_ms =
    if Log_hist.count hist > 0 then
      (Some (Log_hist.percentile hist 50.0), Some (Log_hist.percentile hist 99.0))
    else (None, None)
  in
  let hops = Metrics.lookup_hops (H.metrics h) in
  let stored_total = H.total_items h in
  let invariant_error =
    match Checks.(to_result (final (H.world h))) with
    | Ok () -> None
    | Error m -> Some m
  in
  Gc.compact ();
  let live_bytes = (Gc.stat ()).Gc.live_words * (Sys.word_size / 8) in
  let point =
    {
      n;
      telemetry = l.l_telemetry;
      t_count = l.l_t_count;
      items = l.l_items;
      lookups = l.l_lookups;
      found = l.l_found;
      events;
      build_s = l.l_build_s;
      wall_s = l.l_cpu_s;
      events_per_s;
      minor_words_per_event =
        (if events > 0 then l.l_minor_words /. float_of_int events else 0.0);
      live_bytes;
      bytes_per_peer = float_of_int live_bytes /. float_of_int n;
      vm_rss_kb = proc_status_kb "VmRSS";
      vm_hwm_kb = proc_status_kb "VmHWM";
      p50_ms;
      p99_ms;
      hops_mean = P2p_stats.Summary.mean hops;
      hops_max = P2p_stats.Summary.max hops;
      stored_total;
      invariant_error;
    }
  in
  point

let measure_point ~seed ~n () =
  let l = start_leg ~seed ~n () in
  advance l ~ops:max_int;
  finish_leg l

(* ------------------------------------------------------------------ *)
(* Protocol-built population                                           *)

let protocol_peers = 5_000
let protocol_s_fraction = 0.6

(* The finger work the protocol-built leg may do: about four tables per
   t-peer per ring doubling.  Refreshing every table at every t-join
   would cost about T^2/2. *)
let refresh_ceiling t_count =
  4 * t_count * int_of_float (Float.ceil (Float.log2 (float_of_int (max 2 t_count))))

type protocol_point = {
  pb_t_count : int;
  pb_build_s : float;
  pb_refreshes : int;
  pb_invariant_error : string option;
}

(* Every peer joins through the protocol, one at a time, each join run
   to quiescence — the path `p2psim run` builds its systems on. *)
let protocol_build ~seed =
  let h = H.create ~seed ~routing:(link_state_routing ~seed protocol_peers) () in
  let t0 = Sys.time () in
  ignore (H.grow h ~count:protocol_peers ~s_fraction:protocol_s_fraction : Peer.t array);
  let build_s = Sys.time () -. t0 in
  let w = H.world h in
  {
    pb_t_count = Array.length (World.t_peers w);
    pb_build_s = build_s;
    pb_refreshes = World.finger_refreshes w;
    pb_invariant_error =
      (match Checks.(to_result (final w)) with Ok () -> None | Error m -> Some m);
  }

(* ------------------------------------------------------------------ *)
(* Event queue at depth                                                *)

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
  let g0 = Gc.quick_stat () and m0 = Gc.minor_words () in
  let w0 = Sys.time () in
  Engine.run e;
  let wall = Sys.time () -. w0 in
  let g1 = Gc.quick_stat () and m1 = Gc.minor_words () in
  let n = float_of_int (Engine.events_executed e) in
  {
    chains;
    deep_events = Engine.events_executed e;
    ns_per_event = wall *. 1e9 /. n;
    deep_minor_words_per_event = (m1 -. m0) /. n;
    promoted_words_per_event = (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. n;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let opt_float = function Some f -> Json.Float f | None -> Json.Null
let opt_kb = function Some kb -> Json.Int kb | None -> Json.Null

let point_json p =
  Json.Obj
    [
      (* which transport backend carried the run — benches always drive
         the deterministic sim seam; live-ring figures come from
         `p2psim serve` health dumps instead *)
      ("transport", Json.String "sim");
      ("peers", Json.Int p.n);
      ("t_peers", Json.Int p.t_count);
      ("telemetry", Json.String p.telemetry);
      ("items", Json.Int p.items);
      ("lookups", Json.Int p.lookups);
      ("found", Json.Int p.found);
      ("stored_total", Json.Int p.stored_total);
      ("build_cpu_s", Json.Float p.build_s);
      ("workload_cpu_s", Json.Float p.wall_s);
      ("events", Json.Int p.events);
      ("events_per_s", Json.Float p.events_per_s);
      ("minor_words_per_event", Json.Float p.minor_words_per_event);
      ("live_heap_bytes", Json.Int p.live_bytes);
      ("bytes_per_peer", Json.Float p.bytes_per_peer);
      ("vm_rss_kb", opt_kb p.vm_rss_kb);
      ("vm_hwm_kb", opt_kb p.vm_hwm_kb);
      ("lookup_p50_ms", opt_float p.p50_ms);
      ("lookup_p99_ms", opt_float p.p99_ms);
      ("lookup_hops_mean", Json.Float p.hops_mean);
      ("lookup_hops_max", Json.Float p.hops_max);
      ( "invariants",
        match p.invariant_error with
        | None -> Json.String "ok"
        | Some m -> Json.String m );
    ]

let print_point p =
  Printf.printf
    "  %7d peers (%d t) [%-12s]  %8.0f ev/s  %6.1f minor w/ev  %6.1f MB live (%5.0f B/peer)  found %d/%d  p50 %s p99 %s\n%!"
    p.n p.t_count p.telemetry p.events_per_s p.minor_words_per_event
    (float_of_int p.live_bytes /. 1048576.0)
    p.bytes_per_peer p.found p.lookups
    (match p.p50_ms with Some f -> Printf.sprintf "%.1fms" f | None -> "-")
    (match p.p99_ms with Some f -> Printf.sprintf "%.1fms" f | None -> "-")

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

let write_json ~path doc =
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let run ctx ~smoke () =
  let seed = 42 in
  Printf.printf "== scale sweep%s ==\n%!" (if smoke then " (smoke)" else "");
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* 10k point, full tracing: the reference measurement. *)
  let p10k = measure_point ~seed ~n:10_000 () in
  print_point p10k;
  (* Telemetry cost at the same point: tracing off (the throughput
     ceiling) against head-sampled tracing (the scale configuration),
     the two legs of each pair interleaved chunk by chunk.  Two systems
     are alive at once, so these legs' memory fields are not
     reported. *)
  let pairs =
    List.init overhead_pairs (fun _ ->
        let off = start_leg ~telemetry:`Off ~seed ~n:10_000 () in
        let sampled =
          start_leg ~telemetry:(`Sampled telemetry_sample_rate) ~seed ~n:10_000 ()
        in
        interleave off sampled;
        let off = finish_leg off and sampled = finish_leg sampled in
        Printf.printf "    pair: off %8.0f ev/s, sampled %8.0f ev/s\n%!" off.events_per_s
          sampled.events_per_s;
        (off, sampled))
  in
  let ratio (off, sampled) =
    if off.events_per_s > 0.0 then sampled.events_per_s /. off.events_per_s else 1.0
  in
  let sorted_ratios = List.sort Float.compare (List.map ratio pairs) in
  let median l = List.nth l (List.length l / 2) in
  let ratio_median = median sorted_ratios in
  (* the pair whose ratio is the median stands for both legs in the
     summary fields *)
  let p10k_off, p10k_sampled =
    List.find (fun pair -> ratio pair = ratio_median) pairs
  in
  let sampled_overhead_pct = 100.0 *. (1.0 -. ratio_median) in
  let full_pairs =
    List.init overhead_pairs (fun i ->
        let leg telemetry =
          let l = start_leg ~telemetry ~seed ~n:10_000 () in
          advance l ~ops:max_int;
          finish_leg l
        in
        let off, full =
          if i mod 2 = 0 then
            let off = leg `Off in
            (off, leg `Full)
          else
            let full = leg `Full in
            (leg `Off, full)
        in
        Printf.printf "    pair: off %8.0f ev/s, full %8.0f ev/s\n%!" off.events_per_s
          full.events_per_s;
        (off, full))
  in
  let full_overheads =
    List.sort Float.compare
      (List.map
         (fun (off, full) ->
           if off.events_per_s > 0.0 then
             100.0 *. (1.0 -. (full.events_per_s /. off.events_per_s))
           else 0.0)
         full_pairs)
  in
  let telemetry_overhead_pct = median full_overheads in
  let overhead_min_pct = List.hd full_overheads
  and overhead_max_pct = List.nth full_overheads (overhead_pairs - 1) in
  Printf.printf
    "  telemetry overhead vs off: full %.1f%% (%.1f-%.1f%%), sampled(%g) %.1f%% (median \
     of %d pairs each; sampled/off ratios %s)\n%!"
    telemetry_overhead_pct overhead_min_pct overhead_max_pct telemetry_sample_rate
    sampled_overhead_pct overhead_pairs
    (String.concat " " (List.map (Printf.sprintf "%.3f") sorted_ratios));
  if ratio_median < min_sampled_throughput_ratio then
    fail
      "sampled tracing (rate %g) keeps a median %.1f%% of tracing-off throughput \
       over %d pairs, below %.0f%%"
      telemetry_sample_rate (100.0 *. ratio_median) overhead_pairs
      (100.0 *. min_sampled_throughput_ratio);
  (* Telemetry must never change the simulation itself. *)
  List.iter
    (fun (off, traced) ->
      if off.events <> p10k.events || traced.events <> p10k.events then
        fail "telemetry changed the event schedule (off %d, %s %d, full %d)"
          off.events traced.telemetry traced.events p10k.events;
      if traced.found <> p10k.found || off.found <> p10k.found then
        fail "telemetry changed lookup outcomes (off %d, %s %d, full %d)"
          off.found traced.telemetry traced.found p10k.found)
    (pairs @ full_pairs);
  (* The sampled point: the telemetry rate the scale runs use, on a leg of
     its own (not interleaved), whose allocation and latency are what the
     ceilings and --slo gate. *)
  let sl = start_leg ~telemetry:(`Sampled telemetry_sample_rate) ~seed ~n:10_000 () in
  advance sl ~ops:max_int;
  let p10k_gated = finish_leg sl in
  print_point p10k_gated;
  if p10k_gated.minor_words_per_event > max_minor_words_per_event then
    fail "10k sampled: %.1f minor words/event exceeds the ceiling %.1f"
      p10k_gated.minor_words_per_event max_minor_words_per_event;
  if not (Experiments.slo_pass ctx ~label:"10k sampled" (Metrics.registry (H.metrics sl.l_h)))
  then fail "10k sampled: latency SLO violated (see the [slo] lines above)";
  List.iter
    (fun p ->
      if p.events_per_s < smoke_min_events_per_s then
        fail "10k %s: events/sec %.0f below floor %.0f" p.telemetry p.events_per_s
          smoke_min_events_per_s)
    [ p10k; p10k_gated ];
  let pb = protocol_build ~seed in
  let pb_ceiling = refresh_ceiling pb.pb_t_count in
  Printf.printf
    "  %7d peers (%d t) [protocol-built, s_fraction %g]  build %.3f s cpu  %d finger \
     tables recomputed (ceiling %d)\n%!"
    protocol_peers pb.pb_t_count protocol_s_fraction pb.pb_build_s pb.pb_refreshes pb_ceiling;
  if pb.pb_refreshes > pb_ceiling then
    fail "protocol-built %d peers: %d finger tables recomputed, above the ceiling %d"
      protocol_peers pb.pb_refreshes pb_ceiling;
  (match pb.pb_invariant_error with
  | None -> ()
  | Some msg -> fail "invariants violated after the protocol build: %s" msg);
  let deep_events = if smoke then 400_000 else 2_000_000 in
  let deep =
    List.map (fun chains -> deep_queue ~seed ~chains ~events:deep_events) deep_depths
  in
  List.iter print_depth deep;
  List.iter
    (fun d ->
      if d.deep_minor_words_per_event > max_deep_minor_words_per_event then
        fail "deep queue K=%d: %.1f minor words/event exceeds the ceiling %.1f" d.chains
          d.deep_minor_words_per_event max_deep_minor_words_per_event)
    deep;
  let points = ref [ p10k; p10k_gated ] in
  let attempted_1m = ref "not attempted (smoke mode)" in
  if not smoke then begin
    let p100k = measure_point ~seed ~n:100_000 () in
    print_point p100k;
    points := !points @ [ p100k ];
    (match measure_point ~seed ~n:1_000_000 () with
    | p1m ->
        print_point p1m;
        points := !points @ [ p1m ];
        attempted_1m := "completed"
    | exception Out_of_memory ->
        attempted_1m := "out of memory";
        Printf.printf "  1M point: out of memory\n%!")
  end;
  List.iter
    (fun p ->
      if p.found <> p.lookups then
        fail "%d %s: recall %d/%d (expected 1.0)" p.n p.telemetry p.found p.lookups;
      match p.invariant_error with
      | None -> ()
      | Some msg -> fail "%d %s: invariants violated: %s" p.n p.telemetry msg)
    !points;
  let doc =
    Json.Obj
      [
        ("bench", Json.String "scale");
        ("smoke", Json.Bool smoke);
        ("seed", Json.Int seed);
        ("s_fraction", Json.Float s_fraction);
        ("one_million_point", Json.String !attempted_1m);
        ( "telemetry",
          Json.Obj
            [
              ("sample_rate", Json.Float telemetry_sample_rate);
              ("off_events_per_s", Json.Float p10k_off.events_per_s);
              ("sampled_events_per_s", Json.Float p10k_sampled.events_per_s);
              ("full_events_per_s", Json.Float p10k.events_per_s);
              ("telemetry_overhead_pct", Json.Float telemetry_overhead_pct);
              ("telemetry_overhead_min_pct", Json.Float overhead_min_pct);
              ("telemetry_overhead_max_pct", Json.Float overhead_max_pct);
              ( "full_pairs",
                Json.List
                  (List.map
                     (fun (off, full) ->
                       Json.Obj
                         [
                           ("off_events_per_s", Json.Float off.events_per_s);
                           ("full_events_per_s", Json.Float full.events_per_s);
                         ])
                     full_pairs) );
              ("sampled_overhead_pct", Json.Float sampled_overhead_pct);
              ( "pairs",
                Json.List
                  (List.map
                     (fun ((off, sampled) as pair) ->
                       Json.Obj
                         [
                           ("off_events_per_s", Json.Float off.events_per_s);
                           ("sampled_events_per_s", Json.Float sampled.events_per_s);
                           ("ratio", Json.Float (ratio pair));
                         ])
                     pairs) );
              ("ratio_median", Json.Float ratio_median);
              ("ratio_min", Json.Float (List.hd sorted_ratios));
              ("ratio_max", Json.Float (List.nth sorted_ratios (overhead_pairs - 1)));
              ( "min_sampled_throughput_ratio",
                Json.Float min_sampled_throughput_ratio );
            ] );
        ("points", Json.List (List.map point_json !points));
        ("deep_queue", Json.List (List.map depth_json deep));
        ( "protocol_build",
          Json.Obj
            [
              ("peers", Json.Int protocol_peers);
              ("s_fraction", Json.Float protocol_s_fraction);
              ("t_peers", Json.Int pb.pb_t_count);
              ("protocol_build_s", Json.Float pb.pb_build_s);
              ("finger_refreshes", Json.Int pb.pb_refreshes);
              ("finger_refresh_ceiling", Json.Int pb_ceiling);
            ] );
        ( "gate",
          Json.Obj
            [
              ("min_events_per_s", Json.Float smoke_min_events_per_s);
              ("max_minor_words_per_event", Json.Float max_minor_words_per_event);
              ( "max_deep_minor_words_per_event",
                Json.Float max_deep_minor_words_per_event );
              ("failures", Json.List
                 (List.rev_map (fun s -> Json.String s) !failures));
            ] );
      ]
  in
  write_json ~path:"BENCH_scale.json" doc;
  match !failures with
  | [] -> Printf.printf "scale gate: PASS\n%!"
  | fs ->
      List.iter (fun f -> Printf.printf "scale gate FAIL: %s\n%!" f)
        (List.rev fs);
      exit 1
