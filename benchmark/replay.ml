(* The traced run of a simulator workload: the system is rebuilt in this
   process with the library calls and seed offsets that [p2psim run]
   (bin/p2psim.ml, build_system and run_cmd) and [p2psim scenario]
   (lib/scenario/scenario.ml) make, and every call into a layer is timed
   from here.  Its deterministic counts must equal the same-seed CLI
   run's, which is what keeps this copy of the wiring honest.

   Routing is measured by replay: a transmission-delay hook on the
   underlay records every routed (src, dst) pair, and after the run the
   sequence is replayed, phase by phase, on a fresh router over the same
   graph, calling [hop_count] then [distance] as [Underlay.send] does. *)

module H = Hybrid_p2p.Hybrid
module Peer = Hybrid_p2p.Peer
module World = Hybrid_p2p.World
module Config = Hybrid_p2p.Config
module Data_ops = Hybrid_p2p.Data_ops
module Engine = P2p_sim.Engine
module Rng = P2p_sim.Rng
module Trace = P2p_sim.Trace
module Transit_stub = P2p_topology.Transit_stub
module Routing = P2p_topology.Routing
module Graph = P2p_topology.Graph
module Underlay = P2p_net.Underlay
module Metrics = P2p_net.Metrics
module Registry = P2p_obs.Registry
module Keys = P2p_workload.Keys
module Auditor = P2p_audit.Auditor
module Manager = P2p_replication.Manager
module Scenario = P2p_scenario.Scenario
module W = Workloads

let phases = [| "setup"; "insert"; "lookup"; "churn" |]
let p_setup = 0
let p_insert = 1
let p_lookup = 2
let p_churn = 3

type phase_acc = {
  mutable wall : float;
  mutable drain_wall : float;
  mutable drain_cpu : float;
  mutable handler_cpu : float;
  mutable events : int;
  mutable messages : int;
  mutable hops : int;
  mutable ops : int;
  mutable minor_words : float;
  mutable promoted_words : float;
}

(* Routed pairs, packed as phase | src | dst. *)
let host_bits = 22
let host_mask = (1 lsl host_bits) - 1

type pairs = { mutable buf : int array; mutable len : int }

let push p v =
  if p.len = Array.length p.buf then begin
    let bigger = Array.make (2 * p.len) 0 in
    Array.blit p.buf 0 bigger 0 p.len;
    p.buf <- bigger
  end;
  p.buf.(p.len) <- v;
  p.len <- p.len + 1

type ctx = {
  h : H.t;
  engine : Engine.t;
  spans : Btrace.t;
  track : string;
  acc : phase_acc array;
  mutable phase : int;
  pairs : pairs;
  totals : (string, float) Hashtbl.t;  (** summed seconds (or counts) per named call *)
  mutable tick_wall : float;  (** audit ticks, also inside drains *)
  mutable tick_cpu : float;
}

let now = Unix.gettimeofday

let add_total c name dt =
  Hashtbl.replace c.totals name (dt +. Option.value ~default:0.0 (Hashtbl.find_opt c.totals name))

let total c name = Option.value ~default:0.0 (Hashtbl.find_opt c.totals name)

let time c ~cat name f =
  let r, dt = Btrace.time c.spans ~track:c.track ~cat name f in
  add_total c name dt;
  r

let handler_cpu engine = List.fold_left (fun acc (_, _, cpu) -> acc +. cpu) 0.0 (Engine.profile engine)

(* One drain of the event queue, charged to the current phase. *)
let drain c f =
  let a = c.acc.(c.phase) in
  let ev0 = Engine.events_executed c.engine in
  let h0 = handler_cpu c.engine in
  let cpu0 = Sys.time () in
  let tw0 = c.tick_wall and tc0 = c.tick_cpu in
  let mw0 = Gc.minor_words () in
  let pw0 = (Gc.quick_stat ()).Gc.promoted_words in
  let (), dt = Btrace.time c.spans ~track:c.track ~cat:"engine" "Engine drain" f in
  a.drain_wall <- a.drain_wall +. dt -. (c.tick_wall -. tw0);
  a.drain_cpu <- a.drain_cpu +. (Sys.time () -. cpu0) -. (c.tick_cpu -. tc0);
  a.handler_cpu <- a.handler_cpu +. (handler_cpu c.engine -. h0);
  a.events <- a.events + (Engine.events_executed c.engine - ev0);
  a.minor_words <- a.minor_words +. (Gc.minor_words () -. mw0);
  a.promoted_words <- a.promoted_words +. ((Gc.quick_stat ()).Gc.promoted_words -. pw0)

(* A stretch of the workload charged to [phase]: its wall time and the
   underlay traffic it caused. *)
let section c ~phase name f =
  c.phase <- phase;
  let m = H.metrics c.h in
  let msg0 = Metrics.messages m and hop0 = Metrics.physical_hops m in
  let r, dt = Btrace.time c.spans ~track:c.track ~cat:"phase" name f in
  let a = c.acc.(phase) in
  a.wall <- a.wall +. dt;
  a.messages <- a.messages + (Metrics.messages m - msg0);
  a.hops <- a.hops + (Metrics.physical_hops m - hop0);
  r

let make_ctx ~spans ~track h =
  let config = H.config h in
  (* the hook below replaces the underlay's transmission delay with 0.0,
     which is only the identity when the config adds none *)
  if config.Config.transmission_ms <> 0.0 then
    invalid_arg "Replay: routing replay requires transmission_ms = 0";
  let engine = H.engine h in
  Engine.enable_profiling engine;
  let c =
    {
      h;
      engine;
      spans;
      track;
      acc =
        Array.init (Array.length phases) (fun _ ->
            { wall = 0.0; drain_wall = 0.0; drain_cpu = 0.0; handler_cpu = 0.0; events = 0;
              messages = 0; hops = 0; ops = 0; minor_words = 0.0; promoted_words = 0.0 });
      phase = p_setup;
      pairs = { buf = Array.make 65536 0; len = 0 };
      totals = Hashtbl.create 16;
      tick_wall = 0.0;
      tick_cpu = 0.0;
    }
  in
  Underlay.set_transmission_delay (H.world h).World.underlay (fun ~src ~dst ->
      if src <> dst then
        push c.pairs ((c.phase lsl (2 * host_bits)) lor (src lsl host_bits) lor dst);
      0.0);
  c

(* [bin/p2psim.ml]'s topology sizing: the smallest transit-stub shape
   with at least [n] nodes. *)
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

type build = { graph : Graph.t; generate_s : float; create_s : float; hybrid_s : float }

let build_system ~spans ~track ~seed ~peers ~config ?trace () =
  let topo, generate_s =
    Btrace.time spans ~track ~cat:"topology" "Transit_stub.generate" (fun () ->
        Transit_stub.generate ~rng:(Rng.create (seed + 1)) (topology_for peers))
  in
  let graph = topo.Transit_stub.graph in
  let routing, create_s =
    Btrace.time spans ~track ~cat:"topology" "Routing.create" (fun () -> Routing.create graph)
  in
  let h, hybrid_s =
    Btrace.time spans ~track ~cat:"core" "Hybrid.create" (fun () ->
        H.create ~seed ~routing ~config ?trace ())
  in
  ({ graph; generate_s; create_s; hybrid_s }, make_ctx ~spans ~track h)

type outcome = {
  ctx : ctx;
  build : build;
  counts : (string * int) list;
  trace : Trace.t;
  auditor : Auditor.t option;
}

(* --- p2psim run ------------------------------------------------------- *)

let run ~spans ~track ~seed (s : W.run_spec) =
  let config =
    { Config.default with Config.default_ttl = Option.value s.W.ttl ~default:Config.default.Config.default_ttl }
  in
  let build, c = build_system ~spans ~track ~seed ~peers:s.W.peers ~config () in
  let h = c.h in
  let rng = Rng.create (seed + 2) in
  section c ~phase:p_setup "setup" (fun () ->
      let roles =
        Array.init s.W.peers (fun _ -> if Rng.bernoulli rng s.W.ps then Peer.S_peer else Peer.T_peer)
      in
      roles.(0) <- Peer.T_peer;
      Array.iteri
        (fun host role ->
          time c ~cat:"core" "Hybrid.join" (fun () -> ignore (H.join h ~host ~role () : Peer.t));
          drain c (fun () -> H.run h))
        roles);
  c.acc.(p_setup).ops <- s.W.peers;
  let corpus, stored =
    section c ~phase:p_insert "insert" (fun () ->
        let corpus = Keys.generate ~rng ~count:s.W.items ~categories:4 in
        time c ~cat:"core" "insert issue" (fun () ->
            Array.iter
              (fun it -> H.insert h ~from:(H.random_peer h) ~key:it.Keys.key ~value:it.Keys.value ())
              corpus);
        drain c (fun () -> H.run h);
        (corpus, H.total_items h))
  in
  c.acc.(p_insert).ops <- s.W.items;
  section c ~phase:p_lookup "lookup" (fun () ->
      let targets = Keys.lookup_sequence ~rng ~items:corpus ~count:s.W.lookups in
      time c ~cat:"core" "lookup issue" (fun () ->
          Array.iter
            (fun it -> H.lookup h ~from:(H.random_peer h) ~key:it.Keys.key ~on_result:(fun _ -> ()) ())
            targets);
      drain c (fun () -> H.run h));
  c.acc.(p_lookup).ops <- s.W.lookups;
  let m = H.metrics h in
  let counts =
    [ ("messages", Metrics.messages m); ("physical_hops", Metrics.physical_hops m);
      ("lookups_ok", Metrics.lookups_succeeded m); ("lookups_failed", Metrics.lookups_failed m);
      ("connum", Metrics.connum m); ("stored_items", stored) ]
  in
  { ctx = c; build; counts; trace = H.trace h; auditor = None }

(* --- p2psim scenario -------------------------------------------------- *)

(* Scenario's runner state, mirrored so each step can be timed. *)
type scen = {
  rng : Rng.t;
  auditor : Auditor.t;
  manager : Manager.t option;
  interval : float;
  mutable next_due : float;  (** mirrors the auditor's own schedule *)
  mutable keys : string list;
  mutable key_count : int;
  mutable joined : int;
  mutable crashed : int;
  mutable inserted : int;
  mutable ok : int;
  mutable failed : int;
  mutable needs_repair : bool;
}

let tick c st =
  let cpu0 = Sys.time () in
  let (), dt =
    Btrace.time c.spans ~track:c.track ~cat:"audit" "Auditor.tick" (fun () ->
        ignore (Auditor.tick st.auditor : P2p_audit.Checks.snapshot))
  in
  c.tick_wall <- c.tick_wall +. dt;
  c.tick_cpu <- c.tick_cpu +. (Sys.time () -. cpu0);
  st.next_due <- Engine.now c.engine +. st.interval

(* Auditor.settle, with each tick timed. *)
let settle c st =
  drain c (fun () ->
      let progressed = ref false and continue = ref true in
      while !continue do
        if Auditor.due st.auditor then tick c st;
        if Engine.step c.engine then progressed := true else continue := false
      done;
      if !progressed || Auditor.ticks st.auditor = 0 then tick c st)

(* Auditor.advance, likewise. *)
let advance c st ~ms =
  drain c (fun () ->
      let target = Engine.now c.engine +. ms in
      let continue = ref true in
      while !continue do
        if st.next_due < target then begin
          Engine.run_until c.engine ~time:st.next_due;
          tick c st
        end
        else begin
          Engine.run_until c.engine ~time:target;
          continue := false
        end
      done)

let random_live c st =
  match H.peers c.h with [] -> None | all -> Some (Rng.pick_list st.rng all)

let step c st prev action =
  let h = c.h in
  let phase, name =
    match action with
    | Scenario.Join_many _ -> (p_setup, "join")
    | Scenario.Insert_items _ -> (p_insert, "insert")
    | Scenario.Lookup_items _ -> (p_lookup, "lookup")
    | Scenario.Crash_random -> (p_churn, "crash")
    | Scenario.Repair -> (p_churn, "repair")
    | Scenario.Anti_entropy _ -> (p_churn, "anti-entropy")
    | Scenario.Settle -> (prev, "settle")
    | _ -> invalid_arg "Replay.step: action unused by the benchmark"
  in
  let a = c.acc.(phase) in
  section c ~phase name (fun () ->
      match action with
      | Scenario.Join_many (count, s_fraction) ->
        for _ = 1 to count do
          let role = if Rng.bernoulli st.rng s_fraction then Peer.S_peer else Peer.T_peer in
          let host = H.fresh_host h in
          let role = if H.peer_count h = 0 then Peer.T_peer else role in
          time c ~cat:"core" "Hybrid.join" (fun () -> ignore (H.join h ~host ~role () : Peer.t));
          settle c st;
          st.joined <- st.joined + 1
        done;
        a.ops <- a.ops + count
      | Scenario.Insert_items count ->
        time c ~cat:"core" "insert issue" (fun () ->
            for _ = 1 to count do
              match random_live c st with
              | None -> ()
              | Some from ->
                let key = Printf.sprintf "scenario-%06d" st.key_count in
                st.key_count <- st.key_count + 1;
                st.keys <- key :: st.keys;
                st.inserted <- st.inserted + 1;
                H.insert h ~from ~key ~value:("v:" ^ key) ()
            done);
        settle c st;
        a.ops <- a.ops + count
      | Scenario.Lookup_items count ->
        let pool = Array.of_list st.keys in
        time c ~cat:"core" "lookup issue" (fun () ->
            for _ = 1 to count do
              if Array.length pool = 0 then st.failed <- st.failed + 1
              else
                match random_live c st with
                | None -> st.failed <- st.failed + 1
                | Some from ->
                  let key = Rng.pick st.rng pool in
                  H.lookup h ~from ~key
                    ~on_result:(function
                      | Data_ops.Found _ -> st.ok <- st.ok + 1
                      | Data_ops.Timed_out -> st.failed <- st.failed + 1)
                    ()
            done);
        settle c st;
        a.ops <- a.ops + count
      | Scenario.Crash_random ->
        time c ~cat:"failure" "crash" (fun () ->
            match random_live c st with
            | None -> ()
            | Some victim ->
              H.crash h victim;
              st.crashed <- st.crashed + 1;
              st.needs_repair <- true);
        a.ops <- a.ops + 1
      | Scenario.Repair ->
        let m = H.metrics h in
        let msg0 = Metrics.messages m in
        time c ~cat:"failure" "repair" (fun () ->
            H.repair h;
            settle c st);
        add_total c "repair messages" (float_of_int (Metrics.messages m - msg0));
        add_total c "repairs" 1.0;
        st.needs_repair <- false;
        a.ops <- a.ops + 1
      | Scenario.Anti_entropy ms ->
        time c ~cat:"replication" "anti-entropy" (fun () ->
            match st.manager with
            | None -> ()
            | Some m ->
              Manager.start m;
              advance c st ~ms;
              Manager.stop m;
              settle c st);
        a.ops <- a.ops + 1
      | _ -> settle c st);
  phase

let scenario ~spans ~track ~seed (cs : W.churn_spec) =
  let config = { Config.default with Config.replication_factor = cs.W.replication } in
  let trace = Trace.create ~capacity:200_000 ~sample_rate:cs.W.trace_sample ~sample_seed:seed () in
  let build, c = build_system ~spans ~track ~seed ~peers:cs.W.c_peers ~config ~trace () in
  let h = c.h in
  let auditor = Auditor.create ~interval:cs.W.audit_interval (H.world h) in
  let manager =
    if config.Config.replication_factor > 0 then Some (Manager.install (H.world h)) else None
  in
  let st =
    {
      rng = Rng.create seed;
      auditor;
      manager;
      interval = cs.W.audit_interval;
      next_due = Engine.now c.engine +. cs.W.audit_interval;
      keys = [];
      key_count = 0;
      joined = 0;
      crashed = 0;
      inserted = 0;
      ok = 0;
      failed = 0;
      needs_repair = false;
    }
  in
  ignore (List.fold_left (step c st) p_setup cs.W.script : int);
  section c ~phase:p_churn "final repair and audit" (fun () ->
      if st.needs_repair then
        time c ~cat:"failure" "repair" (fun () ->
            H.repair h;
            drain c (fun () -> H.run h));
      tick c st);
  let m = H.metrics h in
  let counts =
    [ ("messages", Metrics.messages m); ("physical_hops", Metrics.physical_hops m);
      ("joined", st.joined); ("crashed", st.crashed); ("inserted", st.inserted);
      ("lookups_ok", st.ok); ("lookups_failed", st.failed); ("connum", Metrics.connum m);
      ("stored_items", H.total_items h); ("audit_ticks", Auditor.ticks auditor) ]
  in
  { ctx = c; build; counts; trace; auditor = Some auditor }

(* The CLI's epilogue: span analysis folded into the registry (when
   tracing), then the trace and metrics files. *)
let export o ~dir =
  let c = o.ctx in
  let reg = Metrics.registry (H.metrics c.h) in
  if Trace.enabled o.trace then
    time c ~cat:"obs" "Spans.record" (fun () -> P2p_obs.Spans.record reg o.trace);
  time c ~cat:"obs" "Export.write" (fun () ->
      if Trace.enabled o.trace then
        P2p_obs.Export.write_trace ~path:(Filename.concat dir "replay-trace.jsonl") o.trace;
      P2p_obs.Export.write_metrics ~path:(Filename.concat dir "replay-metrics.json") reg)

(* --- routing replay --------------------------------------------------- *)

type routing_cost = { seconds : float array; routed : int array; cold_sources : int }

let replay_routing graph p =
  let r = Routing.create graph in
  let seconds = Array.make (Array.length phases) 0.0 in
  let routed = Array.make (Array.length phases) 0 in
  let i = ref 0 in
  while !i < p.len do
    (* time each same-phase run as one block, keeping the clock out of
       the per-message loop *)
    let phase = p.buf.(!i) lsr (2 * host_bits) in
    let j = ref !i in
    while !j < p.len && p.buf.(!j) lsr (2 * host_bits) = phase do incr j done;
    let t0 = now () in
    for k = !i to !j - 1 do
      let v = p.buf.(k) in
      let src = (v lsr host_bits) land host_mask and dst = v land host_mask in
      ignore (Routing.hop_count r src dst : int);
      ignore (Routing.distance r src dst : float)
    done;
    seconds.(phase) <- seconds.(phase) +. (now () -. t0);
    routed.(phase) <- routed.(phase) + (!j - !i);
    i := !j
  done;
  let seen = Array.make (Graph.node_count graph) false in
  let cold = ref 0 in
  for k = 0 to p.len - 1 do
    let src = (p.buf.(k) lsr host_bits) land host_mask in
    if not seen.(src) then begin
      seen.(src) <- true;
      incr cold
    end
  done;
  { seconds; routed; cold_sources = !cold }

(* --- per-layer metrics ------------------------------------------------ *)

type summary = {
  counts : (string * int) list;
  metrics : (string * float) list;  (** every layer but routing *)
  walls : float array;  (** traced wall per phase, set-up including the build *)
  traced_s : float;  (** all traced work, for the overhead ratio *)
  graph : Graph.t;
  pairs : pairs;
}

let ratio a b = if b = 0.0 then 0.0 else a /. b

let per_phase name f = Array.to_list (Array.mapi (fun i p -> (name ^ "." ^ p, f i)) phases)

let summarize (o : outcome) =
  let c = o.ctx and b = o.build in
  let m = H.metrics c.h in
  let reg = Metrics.registry m in
  let fi = float_of_int in
  let counter sub name = fi (Registry.counter_value (Registry.counter reg ~subsystem:sub ~name)) in
  let acc f i = f c.acc.(i) in
  let fires label =
    List.fold_left (fun n (l, k, _) -> if l = label then n + k else n) 0 (Engine.profile c.engine)
  in
  let hops = Metrics.lookup_hops m in
  let ticks = match o.auditor with Some a -> fi (Auditor.ticks a) | None -> 0.0 in
  let setup = c.acc.(p_setup) in
  let walls =
    Array.mapi
      (fun i a -> if i = p_setup then a.wall +. b.generate_s +. b.create_s +. b.hybrid_s else a.wall)
      c.acc
  in
  let metrics =
    [ ("transit_stub.generate_s", b.generate_s); ("routing.create_s", b.create_s) ]
    @ per_phase "engine.events" (acc (fun a -> fi a.events))
    @ per_phase "engine.events_per_s" (acc (fun a -> ratio (fi a.events) a.drain_wall))
    @ [ ("engine.queue_high_water", fi (Engine.queue_high_water c.engine)) ]
    @ per_phase "engine.handler_cpu_s" (acc (fun a -> a.handler_cpu))
    @ per_phase "engine.self_cpu_s" (acc (fun a -> a.drain_cpu -. a.handler_cpu))
    @ [ ("engine.timer_fires", fi (fires "timer")) ]
    @ per_phase "underlay.messages" (acc (fun a -> fi a.messages))
    @ per_phase "underlay.physical_hops" (acc (fun a -> fi a.hops))
    @ per_phase "underlay.msgs_per_op" (acc (fun a -> ratio (fi a.messages) (fi a.ops)))
    @ [ ("hybrid.join_s", setup.wall);
        ("hybrid.join_msgs_per_peer", ratio (fi setup.messages) (fi setup.ops));
        ("data_ops.insert_issue_s", total c "insert issue");
        ("data_ops.lookup_issue_s", total c "lookup issue");
        ("data_ops.lookup_hops_mean",
          if P2p_stats.Summary.count hops = 0 then 0.0 else P2p_stats.Summary.mean hops);
        ("s_network.floods", counter "s_network" "floods");
        ("s_network.flood_visits_per_lookup",
          ratio (counter "s_network" "flood_visits") (fi (Metrics.lookups_issued m)));
        ("s_network.visits_per_found",
          ratio (counter "s_network" "flood_visits") (fi (Metrics.lookups_succeeded m)));
        ("t_network.stabilizations", counter "t_network" "stabilizations");
        ("failure.crash_s", total c "crash");
        ("failure.repair_s", total c "repair");
        ("failure.elections", counter "failure" "elections");
        ("replication.anti_entropy_s", total c "anti-entropy");
        ("replication.msgs_per_repair", ratio (total c "repair messages") (total c "repairs"));
        ("replication.replica_hits", counter "replication" "replica_hits");
        ("auditor.ticks", ticks);
        ("auditor.tick_s", c.tick_wall);
        ("auditor.ms_per_tick", ratio (c.tick_wall *. 1000.0) ticks);
        ("trace.ops_sampled", fi (Trace.ops_sampled o.trace));
        ("trace.events", fi (Trace.total_recorded o.trace));
        ("spans.record_s", total c "Spans.record");
        ("export.write_s", total c "Export.write") ]
    @ per_phase "gc.minor_words_per_event" (acc (fun a -> ratio a.minor_words (fi a.events)))
    @ per_phase "gc.promoted_words_per_event" (acc (fun a -> ratio a.promoted_words (fi a.events)))
  in
  {
    counts = o.counts;
    metrics;
    walls;
    traced_s = Array.fold_left ( +. ) 0.0 walls +. total c "Spans.record" +. total c "Export.write";
    graph = b.graph;
    pairs = c.pairs;
  }

let routing_metrics s rc =
  let fi = float_of_int in
  per_phase "routing.replay_s" (fun i -> rc.seconds.(i))
  @ per_phase "routing.messages_routed" (fun i -> fi rc.routed.(i))
  @ [ ("routing.cold_sources", fi rc.cold_sources) ]
  @ per_phase "routing.ns_per_message" (fun i -> ratio (rc.seconds.(i) *. 1e9) (fi rc.routed.(i)))
  @ per_phase "routing.share" (fun i -> ratio rc.seconds.(i) s.walls.(i))
