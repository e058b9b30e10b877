module Engine = P2p_sim.Engine
module Routing = P2p_topology.Routing
module Link_stress = P2p_topology.Link_stress

type t = {
  engine : Engine.t;
  routing : Routing.t;
  hosts : int;  (* the routing graph's node count: hosts are [0, hosts) *)
  metrics : Metrics.t;
  stress : Link_stress.t option;
  processing_delay : float;
  mutable transmission_delay : (src:int -> dst:int -> float) option;
}

let create ~engine ~routing ~metrics ?stress ~processing_delay () =
  if processing_delay < 0.0 then invalid_arg "Underlay.create: negative processing delay";
  {
    engine;
    routing;
    hosts = P2p_topology.Graph.node_count (Routing.graph routing);
    metrics;
    stress;
    processing_delay;
    transmission_delay = None;
  }

let set_transmission_delay t f = t.transmission_delay <- Some f

(* hoisted so the per-message schedule call allocates no [Some] *)
let message_label = Some "message"

let transmission t ~src ~dst =
  match t.transmission_delay with Some f -> f ~src ~dst | None -> 0.0

let delay t ~src ~dst =
  let transmission = transmission t ~src ~dst in
  if src = dst then t.processing_delay
  else Routing.distance t.routing src dst +. t.processing_delay +. transmission

(* The distance is read once per message: it decides reachability and
   the delay, and the hop count is read without checking reachability
   again.  An unreachable pair raises [Not_found] before anything is
   counted, as [Routing.hop_count] does.  While the engine profiles, the
   route reads are timed with its stopwatch into a row of their own,
   [routing], and taken out of the handler that sent; reads made
   between events, as a join's or an issued operation's first send,
   go to [routing-top]. *)
let outside t host = host < 0 || host >= t.hosts

let routing_label = "routing"
let routing_top_label = "routing-top"

let send t ~src ~dst f =
  if outside t src || outside t dst then
    invalid_arg
      (Printf.sprintf "Underlay.send: host %d is outside the underlay (hosts 0..%d)"
         (if outside t src then src else dst) (t.hosts - 1));
  let profiling = src <> dst && Engine.profiling t.engine in
  let started = if profiling then Engine.stopwatch () else 0.0 in
  let distance = if src = dst then 0.0 else Routing.distance t.routing src dst in
  if distance = infinity then raise Not_found;
  let path_hops =
    if src = dst then 0
    else begin
      (match t.stress with
       | Some stress -> Link_stress.charge_path stress (Routing.path t.routing src dst)
       | None -> ());
      Routing.reachable_hops t.routing src dst
    end
  in
  if profiling then
    Engine.charge t.engine
      (if Engine.in_timed_event t.engine then routing_label else routing_top_label)
      ~cpu_s:(Engine.stopwatch () -. started);
  Metrics.record_message t.metrics ~physical_hops:path_hops;
  let transmission = transmission t ~src ~dst in
  let delay =
    if src = dst then t.processing_delay else distance +. t.processing_delay +. transmission
  in
  (* deliveries are never cancelled: the detached path skips the handle *)
  Engine.schedule_detached t.engine ~label:message_label ~delay f

let engine t = t.engine
let metrics t = t.metrics
let routing t = t.routing
