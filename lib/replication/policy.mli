(** Replica-placement policy: where the durability layer puts the
    [replication_factor] redundant copies of an item whose primary copy
    lives at a given peer.

    One copy goes with each of the next [r] live t-peers clockwise from
    the owner of the primary holder's segment — distinct s-networks, so
    losing a whole tree (or its t-peer) leaves [r] copies standing.  This
    mirrors the successor-list discipline structured overlays use for
    their own state.

    The policy is {e location-agnostic}: targets are computed from the
    current membership, so after churn the "right" target set moves and
    the heal pass re-establishes it. *)

module World := Hybrid_p2p.World
module Peer := Hybrid_p2p.Peer

(** [targets w ~primary] lists the peers that should hold a replica of
    an item whose primary copy sits at [primary], under the world's
    configured factor.  Never includes [primary]; at most
    [replication_factor] peers; shorter when the membership cannot
    support the full factor (fewer than [r + 1] t-peers).  Empty when
    replication is off, [primary] is dead, or its t-home is dead (pre-repair limbo — the post-repair heal recomputes). *)
val targets : World.t -> primary:Peer.t -> Peer.t list

(** [live_home w ~primary] is the t-peer whose successors {!targets}
    draws on: [primary]'s t-home, or [None] when {!targets} is empty for
    want of one (replication off, [primary] or its home dead).
    [targets w ~primary] is [home_targets w ~home] for that home, so a
    caller placing many items can compute the list once per home. *)
val live_home : World.t -> primary:Peer.t -> Peer.t option

(** [home_targets w ~home] — the replica targets of every item whose
    primary holder's live home is [home]. *)
val home_targets : World.t -> home:Peer.t -> Peer.t list

(** [expected_copies w ~primary] is [List.length (targets w ~primary)] —
    the factor the audit check holds the system to for this item. *)
val expected_copies : World.t -> primary:Peer.t -> int

(** [ring_successors w ~home ~factor] is the raw successor enumeration
    {!targets} builds on: the next [min factor (n-1)] live t-peers
    clockwise from [home].  Exposed for the per-segment
    anti-entropy exchange, which pairs each segment owner with exactly
    these peers. *)
val ring_successors : World.t -> home:Peer.t -> factor:int -> Peer.t list
