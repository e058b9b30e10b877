(** Message delivery over the physical network.

    Sending an overlay message from peer [src] to peer [dst] schedules its
    delivery after the latency of the shortest physical path between the two
    hosts (plus a fixed per-message processing delay), charges link stress to
    each physical link on the path, and bumps the message counters.  The
    payload is an arbitrary closure, so protocol code reads naturally:

    {[ Underlay.send net ~src ~dst (fun () -> handle_join_request dst msg) ]} *)

type t

(** [create ~engine ~routing ~metrics ?stress ~processing_delay ()]
    wires an underlay.  [stress] enables per-link stress accounting
    (slightly more work per message as paths must be materialized);
    [processing_delay] (ms) models per-hop handling cost and is added
    once per overlay message. *)
val create :
  engine:P2p_sim.Engine.t ->
  routing:P2p_topology.Routing.t ->
  metrics:Metrics.t ->
  ?stress:P2p_topology.Link_stress.t ->
  processing_delay:float ->
  unit ->
  t

(** [send t ~src ~dst f] delivers [f] at [now + delay src dst].
    Sending to self delivers after just the processing delay.  The
    underlay counts the message and its physical hops; it traces
    nothing — the protocol layers attribute a message to an operation
    with a span ({!P2p_sim.Trace.begin_span}).
    @raise Invalid_argument naming the host when [src] or [dst] is not a
    node of the routing graph (a hand-wired peer's negative host). *)
val send : t -> src:int -> dst:int -> (unit -> unit) -> unit

(** [set_transmission_delay t f] installs an additional per-message delay
    [f ~src ~dst] (ms) — used to model heterogeneous access-link
    capacities: a message costs what the slower endpoint's link can
    carry. *)
val set_transmission_delay : t -> (src:int -> dst:int -> float) -> unit

(** [delay t ~src ~dst] is the one-way latency an overlay message
    experiences, including processing delay. *)
val delay : t -> src:int -> dst:int -> float

val engine : t -> P2p_sim.Engine.t
val metrics : t -> Metrics.t
val routing : t -> P2p_topology.Routing.t
