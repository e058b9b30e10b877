(** The unstructured tier: tree-shaped s-networks (Section 3.2.2).

    Each s-network is a tree rooted at a t-peer.  A joining s-peer walks
    from the root down a random branch until it finds a peer with a free
    degree slot (its "connect point"); the walk, the graceful leave with
    subtree rejoin, and the TTL-bounded tree flood all travel as messages
    through the underlay, so hop counts and latencies are measured, not
    modelled. *)

(** [join w ~joiner ~root ~on_done] runs the join walk from the t-peer
    [root].  When the tree edge is wired, [on_done ~hops ~cp] fires with
    the number of overlay hops the request travelled and the chosen
    connect point.  The joiner is registered in the world and the server's
    size table is maintained.  [op] stamps every walk message with the
    join's trace operation id. *)
val join :
  World.t ->
  ?op:int ->
  joiner:Peer.t ->
  root:Peer.t ->
  on_done:(hops:int -> cp:Peer.t -> unit) ->
  unit ->
  unit

(** [rejoin_subtree w ~child ~root ~on_done] re-attaches an existing peer
    (carrying its whole subtree) under [root]'s tree — used when a parent
    leaves or crashes.  No registration or size accounting happens: the
    peers never left the system.  [op] attributes the walk messages to the
    triggering leave/repair operation in the trace. *)
val rejoin_subtree :
  World.t ->
  ?op:int ->
  child:Peer.t ->
  root:Peer.t ->
  on_done:(hops:int -> unit) ->
  unit ->
  unit

(** [rejoin_subtree_sync w ~child ~root] is {!rejoin_subtree} without
    message traffic — used by offline repair, which models the outcome of
    recovery rather than its timing. *)
val rejoin_subtree_sync : World.t -> child:Peer.t -> root:Peer.t -> unit

(** [leave w peer] removes an s-peer gracefully: its stored items transfer
    to its connect point, neighbours drop it, and each orphaned child
    rejoins through the t-peer (Section 3.2.2).  [op] is the trace
    operation id of the leave.
    @raise Invalid_argument on a t-peer or a dead peer. *)
val leave : World.t -> ?op:int -> Peer.t -> unit

(** [set_subtree_home w ~root ~home] rewrites [t_home] and [p_id] of every
    member of [root]'s subtree — used after a role transfer. *)
val set_subtree_home : World.t -> root:Peer.t -> home:Peer.t -> unit

(** [flood w ~from ~ttl ~visit] floods over tree edges: [visit peer ~depth]
    runs at every reached peer (including [from] at depth 0) at the
    simulated moment the query arrives, and returns whether that peer keeps
    forwarding — a peer that finds the item locally stops flooding
    (Section 3.4) while other branches continue.  The tree guarantees each
    peer is visited at most once.  [op] stamps every flood message with the
    originating operation's trace id.

    [prune_key] turns on summary-guided pruning: when the edge summaries
    ({!Summaries}) are enabled and the tree's are fresh, branches whose
    summary rules out [prune_key] within the remaining TTL budget are not
    forwarded to (counted under [s_network/flood_pruned]).  A keyed flood
    first rebuilds stale summaries ({!Summaries.ensure_fresh}); freshness
    is re-checked at every hop so mid-flight invalidation degrades the
    flood back to the full tree visit.  Only exact-key searches may pass
    [prune_key] — keyword scans must flood unguided. *)
val flood :
  World.t ->
  ?op:int ->
  ?prune_key:string ->
  from:Peer.t ->
  ttl:int ->
  visit:(Peer.t -> depth:int -> bool) ->
  unit ->
  unit
