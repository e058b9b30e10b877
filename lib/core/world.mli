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
          {!P2p_transport.Sim_transport} over [underlay].  The core's
          messages are closures, which only that backend carries *)
  metrics : P2p_net.Metrics.t;
  trace : P2p_sim.Trace.t;
      (** where operation ids are minted and their span trees recorded *)
  config : Config.t;
  rng : P2p_sim.Rng.t;
  interner : Intern.t;
      (** world-wide string interner shared by every registered peer's
          stores, so all copies of a key or value share one heap block
          and one key id *)
  changes : Peer.log;
      (** the change journal, one {!Change_log} per reader.  [peers]:
          what the online audit re-verifies — every peer written through
          a {!Peer} setter, every peer registered or unregistered, the
          t-peer of every size-table row written, and the members a ring
          merge made neighbours.  [keys]: what the replication heal
          re-examines — every key id a registered peer's store wrote,
          and every key id a peer entering or leaving the membership
          holds, with its store's holder tag *)
  mutable slots : Peer.t option array;
      (** host-indexed membership directory (hosts are dense graph node
          ids); [None] = no peer registered on that host *)
  mutable live_count : int;  (** registered peers, i.e. occupied [slots] *)
  mutable live_index : int array;
      (** Fenwick tree of occupied [slots], same capacity: what lets
          {!nth_live_peer} find the k-th registered peer in O(log N) *)
  mutable snet : int array;
      (** host-indexed s-peer counts for t-peers; [-1] = no entry *)
  mutable t_sorted : Peer.t array;
      (** live t-peers by (p_id, host), brought up to date lazily; each
          update builds fresh arrays, so an old one stays a valid
          snapshot *)
  mutable t_ids : int array;
      (** p_ids of [t_sorted], same order — the flat successor array the
          oracle binary-searches without touching peer records *)
  mutable t_dirty : bool;
  mutable ring_joined : Peer.t list;
      (** t-peers registered since [t_sorted] was last brought up to date *)
  mutable ring_dropped : Peer.t list;  (** t-peers unregistered since then *)
  mutable ring_left : Peer.t list;
      (** peers dropped from [t_sorted] since the last finger refresh
          point *)
  by_size : Size_heap.t;
      (** the ring members' hosts, keyed (size, p_id, host) by their
          rows of the size table: exactly the hosts of ring members *)
  mutable fingers_dirty : bool;
  mutable finger_sorted : Peer.t array;
      (** the ring ([t_sorted]) as of the last finger refresh point *)
  mutable finger_ids : int array;  (** its p_ids *)
  mutable finger_stale : Bytes.t;
      (** per member of [finger_sorted]: ['\001'] while its table still
          waits for the recomputation that refresh point stands for *)
  mutable finger_refreshes : int;
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
  mutable open_joins : int;
      (** joins begun through [Hybrid.join] whose [finish_join] has not
          run yet *)
  mutable open_leaves : int;
      (** leaves begun through [Hybrid.leave] that have not ended yet.
          The final audit reports an open join or leave: at rest, a
          change still open waits on a lock that never frees *)
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
    protocol layers arm timers only through these, never on an engine
    of their own, and cancel, reset or test them with
    {!P2p_sim.Timer}'s functions.  Cancelling after firing is a counted
    no-op (the [timer/cancel_late] counter). *)
val one_shot :
  t -> ?label:string -> delay:float -> (unit -> unit) -> P2p_sim.Timer.t

(** [periodic t ~period f] fires [f] every [period] until cancelled. *)
val periodic :
  t -> ?label:string -> period:float -> (unit -> unit) -> P2p_sim.Timer.t

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

(** The world's change journal (see the [changes] field): what every
    peer of this world must be made with ([Peer.make ~log]). *)
val change_log : t -> Peer.log

(** [register t peer] enters [peer] into the membership directory, and
    journals it (and any peer it displaces) as changed.  A peer entering
    or leaving the directory journals each item in its stores as a key
    write ({!Data_store.note_held}): holders moved that no store write
    names.  {!unregister} does the same.
    @raise Invalid_argument on a negative host, when the peer's
    stores use an interner other than {!interner} (every registered
    store shares the world's key ids, so whole-world passes — the
    replication heal, the audit — tally keys by id alone), or when the
    peer was made with a change journal other than {!change_log}. *)
val register : t -> Peer.t -> unit

val unregister : t -> Peer.t -> unit
val find_peer : t -> host:int -> Peer.t option

val peer_count : t -> int

(** Every registered peer's host, and every host {!iter_snet_sizes}
    names, lies in [\[0, host_bound t)]: a size for host-indexed arrays
    (hosts are dense graph-node ids). *)
val host_bound : t -> int

(** All registered peers in ascending host order.  Builds an N-element
    list: per-operation code draws with {!nth_live_peer} instead. *)
val live_peers : t -> Peer.t list

(** [nth_live_peer t k] is the [k]-th registered peer in ascending host
    order ([List.nth (live_peers t) k]), found in O(log N) without
    allocating.
    @raise Invalid_argument unless [0 <= k < peer_count t]. *)
val nth_live_peer : t -> int -> Peer.t

(** [iter_peers t f] applies [f] to every registered peer in ascending
    host order, allocating nothing — walks of million-peer worlds
    (audits, replication sweeps) should prefer this to {!live_peers}. *)
val iter_peers : t -> (Peer.t -> unit) -> unit

(** Live t-peers sorted by p_id (host breaks a tie). *)
val t_peers : t -> Peer.t array

(** [successor_index t d_id] is the index into {!t_peers} of [d_id]'s
    successor — the first p_id [>= d_id], wrapping past the highest p_id
    to index [0].  [-1] on an empty ring.  Runs as a binary search over
    the flat [t_ids] array. *)
val successor_index : t -> Id_space.id -> int

(** [ring_index t p] is [p]'s index in {!t_peers} (compared by
    identity), or [-1] when [p] is not on the ring.  O(log T). *)
val ring_index : t -> Peer.t -> int

(** Mark the t-ring membership changed: the oracle catches up on its next
    use, and the next {!ensure_fingers} is a refresh point. *)
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

(** [snet_entry t host] is the size table's row for [host] — the count
    {!iter_snet_sizes} reports for it — or [-1] when it has none. *)
val snet_entry : t -> int -> int

(** [iter_snet_sizes t f] calls [f host count] on every (t-peer host,
    recorded s-peer count) row of the server's size table, in ascending
    host order — the audit layer compares these against live tree
    walks. *)
val iter_snet_sizes : t -> (int -> int -> unit) -> unit

(** Whether the lazily refreshed finger tables currently reflect the ring
    membership.  [false] after a membership change until the next
    [ensure_fingers]; checks comparing fingers to the oracle should skip
    while stale. *)
val fingers_fresh : t -> bool

(** {1 Finger tables}

    Fingers follow an eager schedule, computed lazily.  The schedule: at
    each {e refresh point} every ring member's table is recomputed from
    the ring of that moment; {!refresh_fingers_of} recomputes one table
    from the current ring; {!substitute_in_fingers} rewrites entries in
    place.  A refresh point is an {!ensure_fingers} call after a ring
    change — never the change itself ({!touch_ring}), so a walk in
    flight keeps reading the previous point's fingers while other joins
    change the ring.

    The computation: a refresh point only keeps the ring of that moment
    and marks its members stale; {!fingers} recomputes a stale member's
    table from the kept ring when it is first read.  A peer that leaves
    the ring keeps the tables of the last refresh point it was part
    of.  Reading through {!fingers} therefore always gives what the
    eager schedule would hold, at O(log T) per recomputed entry and only
    for the tables actually read. *)

(** [fingers t peer] is [peer]'s finger table, recomputed first from the
    last refresh point's ring when [peer] was on it and has not been
    brought up to date since.  The one way to read [Peer.fingers]. *)
val fingers : t -> Peer.t -> Peer.t option array

(** [ensure_fingers t] is a refresh point if the ring changed since the
    last one; otherwise a no-op. *)
val ensure_fingers : t -> unit

(** [refresh_fingers_of t peer] recomputes one node's fingers from the
    current ring now (joins, bootstrap, promotion). *)
val refresh_fingers_of : t -> Peer.t -> unit

(** Finger tables recomputed so far (each counts its [Id_space.bits]
    entries once), lazy and explicit alike — a plain counter for tests
    and benches, not a registry metric. *)
val finger_refreshes : t -> int

(** [stabilize_ring t] rewires every live t-peer's successor/predecessor
    from the sorted membership oracle and refreshes fingers — the end
    state the background stabilization protocol reaches.  Used when
    routing detects that crashes left the pointers inconsistent, and
    (after {!touch_ring}) by the failure path's ring rebuild. *)
val stabilize_ring : t -> unit

(** [substitute_in_fingers t ~old_peer ~replacement] performs the paper's
    cheap finger update when an s-peer takes over a leaving/crashed
    t-peer: every finger entry of a ring member pointing at [old_peer] is
    rewritten to [replacement].  Tables still pending from the last
    refresh point are brought up to date first; nothing else is
    recomputed. *)
val substitute_in_fingers : t -> old_peer:Peer.t -> replacement:Peer.t -> unit
