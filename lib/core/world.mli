(** Shared simulation context for one hybrid system instance.

    Bundles the engine, the underlay, the metrics sink, the trace, the
    configuration and the membership directory, and implements the two
    centralized entities the paper assumes:

    - the {e well-known server} peers contact to join: it generates p_ids,
      decides roles, and assigns joining s-peers to s-networks
      (smallest-first, by interest, or by landmark cluster — Sections 3.2,
      5.2, 5.3);
    - the {e oracle} view of the t-ring used for finger-table refresh,
      which models the outcome of background stabilization without
      simulating every stabilization message. *)

open P2p_hashspace

(** How the server assigns a joining s-peer to an s-network. *)
type snet_policy =
  | Smallest_s_network  (** balance sizes (paper Section 3.2.2) *)
  | By_interest  (** match the peer's interest category (Section 5.3) *)
  | By_cluster of P2p_topology.Landmark.t
      (** topology-aware: same landmark cluster -> same s-network, spread
          round-robin when clusters outnumber s-networks (Section 5.2) *)

type t = {
  engine : P2p_sim.Engine.t;
  underlay : P2p_net.Underlay.t;
  transport : P2p_transport.Transport.t;
      (** the seam every protocol message and timer goes through — a
          {!P2p_transport.Sim_transport} over [underlay] here; the live
          Unix backend implements the same signature for real
          deployments *)
  metrics : P2p_net.Metrics.t;
  trace : P2p_sim.Trace.t;
      (** where operation ids are minted and their span trees recorded *)
  config : Config.t;
  rng : P2p_sim.Rng.t;
  interner : Intern.t;
      (** world-wide string interner shared by every peer's stores, so all
          copies of a key or value share one heap block *)
  mutable slots : Peer.t option array;
      (** host-indexed membership directory (hosts are dense graph node
          ids); [None] = no peer registered on that host *)
  mutable live_count : int;  (** registered peers, i.e. occupied [slots] *)
  mutable snet : int array;
      (** host-indexed s-peer counts for t-peers; [-1] = no entry *)
  mutable t_sorted : Peer.t array;  (** live t-peers by p_id (lazy) *)
  mutable t_ids : int array;
      (** p_ids of [t_sorted], same order — the flat successor array the
          oracle binary-searches without touching peer records *)
  mutable t_dirty : bool;
  mutable fingers_dirty : bool;
  mutable summary_epoch : int;
      (** generation counter for the s-tree edge summaries ({!Summaries}):
          bumped whenever a structural change may have invalidated every
          tree's summaries at once (any t-ring membership change, a
          replication heal).  A tree whose root carries an older epoch
          rebuilds lazily before its next pruned flood. *)
  snet_policy : snet_policy;
  pending_election : (int, Peer.t option) Hashtbl.t;
      (** crashed t-peer host -> elected replacement ([None] when the
          s-network had no survivor to promote) *)
  mutable on_query : (receiver:Peer.t -> sender:Peer.t -> unit) option;
      (** installed by [Failure] when heartbeats are on: lets query traffic
          double as liveness evidence (the acknowledgment timers of
          Section 3.2.2) *)
  mutable on_stored :
    (op:int option ->
    holder:Peer.t ->
    route_id:Id_space.id ->
    key:string ->
    value:string ->
    unit)
      option;
      (** fired after an insert's primary copy lands at its holder.
          Installed by [P2p_replication.Manager] to fan the copy out to
          the replica targets; the core stays ignorant of the policy
          (dependency points outward). *)
  mutable on_peer_failure : (Peer.t -> unit) option;
      (** fired when online failure detection concludes a peer genuinely
          crashed (once per detecting neighbour).  Installed by the
          replication manager to schedule re-replication. *)
  mutable on_repaired : (op:int option -> unit) option;
      (** fired at the end of an offline {!Failure.repair} pass, with the
          repair's trace op.  Installed by the replication manager to
          promote surviving replicas of lost primaries and restore the
          replication factor. *)
  mutable replication_pending : int;
      (** replication copies currently in flight (fan-out or heal
          messages not yet delivered).  Audit checks treat a non-zero
          value as "mid-operation" and withhold under-replication
          errors. *)
}

val create :
  engine:P2p_sim.Engine.t ->
  underlay:P2p_net.Underlay.t ->
  metrics:P2p_net.Metrics.t ->
  ?trace:P2p_sim.Trace.t ->
  config:Config.t ->
  ?snet_policy:snet_policy ->
  unit ->
  t

val now : t -> float

(** The world's trace (default {!P2p_sim.Trace.disabled}) — where
    operation ids are minted and their span trees recorded. *)
val trace : t -> P2p_sim.Trace.t

(** [send t ~src ~dst f] delivers [f] through the transport seam.  It
    traces nothing; {!send_span} is the send that records a span of an
    operation. *)
val send : t -> src:Peer.t -> dst:Peer.t -> (unit -> unit) -> unit

(** [one_shot t ~delay f] arms a timer on the transport clock.  The
    protocol layers must use these (not {!P2p_sim.Timer} directly) so
    the same code runs over the simulation engine and the live
    wall-clock wheel.  Cancelling after firing is a counted no-op (the
    [timer/cancel_late] counter). *)
val one_shot :
  t -> ?label:string -> delay:float -> (unit -> unit) -> P2p_transport.Transport.timer

(** [periodic t ~period f] fires [f] every [period] until cancelled. *)
val periodic :
  t -> ?label:string -> period:float -> (unit -> unit) -> P2p_transport.Transport.timer

(** [send_span t ?op ~tier ~phase ~src ~dst f] — {!send}, plus a causal
    span of [op] (parented on the op's root span) covering the message's
    propagation delay and handler execution.  Falls back to a plain
    {!send} when [op] is absent or the trace is disabled. *)
val send_span :
  t ->
  ?op:int ->
  tier:string ->
  phase:string ->
  src:Peer.t ->
  dst:Peer.t ->
  (unit -> unit) ->
  unit

(** [mark_span t ?op ~tier ~phase label] records a zero-duration span of
    [op] at the current time: an instant of attributable work (a cache
    probe, a heal step).  No-op when [op] is absent. *)
val mark_span :
  t ->
  ?op:int ->
  tier:string ->
  phase:string ->
  ?src:Peer.t ->
  ?dst:Peer.t ->
  string ->
  unit

(** [bump t ~subsystem ~name] increments a counter in the metrics
    registry — the per-subsystem attribution channel. *)
val bump : t -> subsystem:string -> name:string -> unit

(** {1 Membership directory} *)

(** The world's shared string interner (see the [interner] field). *)
val interner : t -> Intern.t

(** [register t peer] enters [peer] into the membership directory.
    @raise Invalid_argument on a negative host. *)
val register : t -> Peer.t -> unit

val unregister : t -> Peer.t -> unit
val find_peer : t -> host:int -> Peer.t option

val peer_count : t -> int

(** All registered peers in ascending host order. *)
val live_peers : t -> Peer.t list

(** [iter_peers t f] applies [f] to every registered peer in ascending
    host order, allocating nothing — walks of million-peer worlds
    (audits, replication sweeps) should prefer this to {!live_peers}. *)
val iter_peers : t -> (Peer.t -> unit) -> unit

(** Live t-peers sorted by p_id. *)
val t_peers : t -> Peer.t array

(** [successor_index t d_id] is the index into {!t_peers} of [d_id]'s
    successor — the first p_id [>= d_id], wrapping past the highest p_id
    to index [0].  [-1] on an empty ring.  Runs as a binary search over
    the flat [t_ids] array. *)
val successor_index : t -> Id_space.id -> int

(** Mark the t-ring membership changed (invalidates oracle and fingers). *)
val touch_ring : t -> unit

(** {1 Oracle / server services} *)

(** [oracle_owner t d_id] is the live t-peer owning [d_id], if any. *)
val oracle_owner : t -> Id_space.id -> Peer.t option

(** [fresh_p_id t] draws a random p_id (the server's default generation
    mode). *)
val fresh_p_id : t -> Id_space.id

(** [random_t_peer t] — the server's "arbitrary existing peer" handed to
    joiners; [None] on an empty system. *)
val random_t_peer : t -> Peer.t option

(** [choose_s_network t ~joiner] — the t-peer whose s-network the server
    assigns [joiner] to, following the world's policy.  [None] when there
    are no t-peers. *)
val choose_s_network : t -> joiner:Peer.t -> Peer.t option

(** [snet_size_changed t tpeer ~delta] maintains the server's size table. *)
val snet_size_changed : t -> Peer.t -> delta:int -> unit

(** [snet_size t tpeer] is the server's count of s-peers in [tpeer]'s
    s-network. *)
val snet_size : t -> Peer.t -> int

(** [set_snet_size t tpeer n] overwrites the count — used on role
    transfer. *)
val set_snet_size : t -> Peer.t -> int -> unit

(** Every (t-peer host, recorded s-peer count) row of the server's size
    table, in no particular order — the audit layer compares these against
    live tree walks. *)
val snet_size_entries : t -> (int * int) list

(** Whether the lazily refreshed finger tables currently reflect the ring
    membership.  [false] after a membership change until the next
    [ensure_fingers]; checks comparing fingers to the oracle should skip
    while stale. *)
val fingers_fresh : t -> bool

(** {1 Finger tables} *)

(** [ensure_fingers t] recomputes every live t-peer's fingers if stale. *)
val ensure_fingers : t -> unit

(** [refresh_fingers_of t peer] recomputes one node's fingers from the
    oracle. *)
val refresh_fingers_of : t -> Peer.t -> unit

(** [stabilize_ring t] rewires every live t-peer's successor/predecessor
    from the sorted membership oracle and refreshes fingers — the end
    state the background stabilization protocol reaches.  Used when
    routing detects that crashes left the pointers inconsistent. *)
val stabilize_ring : t -> unit

(** [substitute_in_fingers t ~old_peer ~replacement] performs the paper's
    cheap finger update when an s-peer takes over a leaving/crashed
    t-peer: every finger entry pointing at [old_peer] is rewritten to
    [replacement]; nothing is recomputed. *)
val substitute_in_fingers : t -> old_peer:Peer.t -> replacement:Peer.t -> unit
