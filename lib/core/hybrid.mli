(** The hybrid peer-to-peer system: public facade.

    One value of type {!t} is a complete simulated deployment: the
    discrete-event engine, the physical underlay, the well-known server,
    and every peer.  Peers join and leave (gracefully or by crashing),
    insert [(key, value)] items and look them up; all operations travel as
    messages with real latencies, and every quantity the paper evaluates
    accumulates in {!metrics}.

    Typical use:
    {[
      let h = Hybrid.create_star ~seed:42 ~peers:100 () in
      Hybrid.grow h ~count:100 ~s_fraction:0.7;
      let p = Hybrid.random_peer h in
      Hybrid.insert h ~from:p ~key:"song.mp3" ~value:"bits";
      Hybrid.run h;
      Hybrid.lookup h ~from:(Hybrid.random_peer h) ~key:"song.mp3"
        ~on_result:(fun outcome -> ...);
      Hybrid.run h
    ]} *)

type t

(** Completed join, reported through [on_done]. *)
type join_outcome = { peer : Peer.t; hops : int; latency : float }

(** [create ~seed ~routing ?config ?snet_policy ?stress ()] makes an
    empty system over the given physical topology.  A {!join} without an
    explicit role makes an s-peer with probability 0.5 (the paper's
    [p_s]), and every message pays 0.1 ms of processing delay. *)
val create :
  seed:int ->
  routing:P2p_topology.Routing.t ->
  ?config:Config.t ->
  ?snet_policy:World.snet_policy ->
  ?stress:P2p_topology.Link_stress.t ->
  ?trace:P2p_sim.Trace.t ->
  unit ->
  t

(** [create_star ~seed ~peers ?latency ?config ()] builds a hub-and-spoke
    underlay of [peers] hosts (every pair is two [latency]-ms hops apart)
    — handy for unit tests and examples that do not care about the
    physical topology. *)
val create_star :
  seed:int ->
  peers:int ->
  ?latency:float ->
  ?config:Config.t ->
  ?snet_policy:World.snet_policy ->
  ?trace:P2p_sim.Trace.t ->
  unit ->
  t

(** {1 Accessors} *)

val engine : t -> P2p_sim.Engine.t

(** The message trace (disabled unless a trace was passed to {!create}). *)
val trace : t -> P2p_sim.Trace.t
val metrics : t -> P2p_net.Metrics.t
val config : t -> Config.t
val world : t -> World.t
val now : t -> float

(** Live peers in ascending host order. *)
val peers : t -> Peer.t list

val peer_count : t -> int
val t_peer_count : t -> int
val s_peer_count : t -> int

(** A uniformly random live peer.  The draw is one [Rng.int n] on the
    world's generator, [n = peer_count t], then the peer of that rank in
    {!peers} — what [Rng.pick_list] over {!peers} draws, so seeded runs
    pick the same peers.  O(log N), allocation-free.
    @raise Invalid_argument when empty. *)
val random_peer : t -> Peer.t

(** {1 Running the clock} *)

(** [run t] drains every pending event.  Only terminates when heartbeats
    are off (periodic timers never quiesce). *)
val run : t -> unit

(** [run_for t ms] advances the clock by [ms] simulated milliseconds. *)
val run_for : t -> float -> unit

(** {1 Membership} *)

(** [join t ~host ...] starts a join.  The peer is visible immediately but
    only wired once the protocol completes (drive the engine!).  [role]
    overrides the server's coin-flip at p_s 0.5; the very first peer
    always bootstraps the ring.  [p_id] overrides the server-generated ID
    (t-peers only; conflicts resolve by ring midpoint).
    @raise Invalid_argument if [host] is already occupied. *)
val join :
  t ->
  host:int ->
  ?role:Peer.role ->
  ?p_id:P2p_hashspace.Id_space.id ->
  ?link_capacity:float ->
  ?interest:int ->
  ?on_done:(join_outcome -> unit) ->
  unit ->
  Peer.t

(** [grow t ~count ~s_fraction] joins [count] peers on fresh hosts with the
    given t/s split, settling the network between joins; returns them.
    Intended for test and experiment setup. *)
val grow : t -> count:int -> s_fraction:float -> Peer.t array

(** [fresh_host t] allocates the next unoccupied physical host.
    @raise Invalid_argument when the topology is exhausted. *)
val fresh_host : t -> int

(** [leave t peer ?on_done ()] departs gracefully (role transfer /
    leave triangle for t-peers; load handoff and subtree rejoin for
    s-peers).  A peer whose join has not wired it yet waits in its own
    queue until the join completes, and a t-peer leave then waits behind
    its own and its predecessor's segment locks ({!T_network.leave}); no
    wait arms a timer.  [on_done] fires once, when the peer has left. *)
val leave : t -> Peer.t -> ?on_done:(unit -> unit) -> unit -> unit

(** [crash t peer] rips the peer out without notice; its data is lost. *)
val crash : t -> Peer.t -> unit

(** [repair t] synchronously restores all invariants after crashes (the
    offline equivalent of heartbeat-driven recovery). *)
val repair : t -> unit

(** {1 Data} *)

(** [insert t ~from ~key ~value ?route_id ?on_done ()] stores an item
    (drive the engine to completion).  [route_id] overrides the routing ID
    for interest-based sharing — see {!Interest.route_id}. *)
val insert :
  t ->
  from:Peer.t ->
  key:string ->
  value:string ->
  ?route_id:P2p_hashspace.Id_space.id ->
  ?on_done:(holder:Peer.t -> hops:int -> unit) ->
  unit ->
  unit

(** [lookup t ~from ~key ?ttl ~on_result ()] resolves a key; the outcome
    callback fires exactly once. *)
val lookup :
  t ->
  from:Peer.t ->
  key:string ->
  ?ttl:int ->
  ?route_id:P2p_hashspace.Id_space.id ->
  on_result:(Data_ops.lookup_outcome -> unit) ->
  unit ->
  unit

(** [keyword_search t ~from ~substring ~route_id ~on_result ()] performs a
    partial search (Section 5.3): floods the s-network serving [route_id]
    and, after [window] ms (default 2000), reports every key containing
    [substring] with its holder. *)
val keyword_search :
  t ->
  from:Peer.t ->
  substring:string ->
  route_id:P2p_hashspace.Id_space.id ->
  ?ttl:int ->
  ?window:float ->
  on_result:(Data_ops.keyword_match list -> unit) ->
  unit ->
  unit

(** {1 Inspection} *)

(** Items stored per live peer — the Fig. 4 measurement. *)
val data_distribution : t -> P2p_stats.Histogram.t

(** Total items stored across all live peers. *)
val total_items : t -> int
