module Engine = P2p_sim.Engine
module Routing = P2p_topology.Routing
module Link_stress = P2p_topology.Link_stress

type t = {
  engine : Engine.t;
  routing : Routing.t;
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
    metrics;
    stress;
    processing_delay;
    transmission_delay = None;
  }

let set_transmission_delay t f = t.transmission_delay <- Some f

(* hoisted so the per-message schedule call allocates no [Some] *)
let message_label = Some "message"

let delay t ~src ~dst =
  let transmission =
    match t.transmission_delay with Some f -> f ~src ~dst | None -> 0.0
  in
  if src = dst then t.processing_delay
  else Routing.distance t.routing src dst +. t.processing_delay +. transmission

let send t ~src ~dst f =
  let path_hops =
    if src = dst then 0
    else begin
      (match t.stress with
       | Some stress -> Link_stress.charge_path stress (Routing.path t.routing src dst)
       | None -> ());
      Routing.hop_count t.routing src dst
    end
  in
  Metrics.record_message t.metrics ~physical_hops:path_hops;
  (* deliveries are never cancelled: the detached path skips the handle *)
  Engine.schedule_detached t.engine ~label:message_label ~delay:(delay t ~src ~dst) f

let engine t = t.engine
let metrics t = t.metrics
let routing t = t.routing
