(** The structured tier: the ring of t-peers (Sections 3.2.1 and 3.3).

    Implements the paper's Table 1 pseudocode and Fig. 2 handshakes:

    - position finding for a joining t-peer, walking the ring (optionally
      finger-accelerated) as messages through the underlay;
    - the {e join triangle}: [pre -> new -> suc -> pre], and the {e leave
      triangle}: [leaving -> pre -> suc -> leaving], with the
      predecessor-identity check at [suc]; both serialized per segment by
      the [joining]/[leaving] locks, every change that finds a lock held
      waiting in that peer's FIFO queue ({!wait_at}, {!process_queue});
    - ID-conflict resolution by ring midpoint;
    - role transfer: a leaving t-peer with a non-empty s-network promotes a
      random s-peer instead of tearing the segment down, so finger tables
      need substitution only;
    - load transfer from the successor's whole s-network on join, and the
      [loaddump] to the successor on triangle leave;
    - ring forwarding of data operations, by finger tables by default or,
      as the paper's simulation did, one successor at a time ("forwarded
      along the ring", {!Config.paper}), visiting each intermediate
      t-peer. *)

open P2p_hashspace

(** [join w ~joiner ~introducer ~on_done] inserts [joiner] (role must be
    [T_peer]) into the ring.  The join request routes from [introducer] to
    the correct segment, waits in the predecessor's queue while the
    predecessor is locked, runs the join triangle under the predecessor's
    [joining] lock, pulls the joiner's data segment out of
    the successor's s-network, registers the peer and finally calls
    [on_done ~hops].  On an unresolvable ID conflict (full segment) the
    join is abandoned and [on_fail] fires.  [op] stamps every message the
    join causes — including messages of queued, re-routed and restarted
    attempts — with the operation id in the trace.  A join still waiting
    at a peer whose leave ends re-resolves its segment from the live
    ring. *)
val join :
  World.t ->
  ?op:int ->
  joiner:Peer.t ->
  introducer:Peer.t ->
  ?on_fail:(unit -> unit) ->
  on_done:(hops:int -> unit) ->
  unit ->
  unit

(** [bootstrap w peer] installs the very first t-peer: a one-node ring. *)
val bootstrap : World.t -> Peer.t -> unit

(** [leave w peer ~on_done] removes a t-peer gracefully.  With a non-empty
    s-network a random s-peer is promoted in place (Section 3.2.1); with an
    empty one the leave triangle runs and the data load dumps to the
    successor.  The leave waits in the peer's own queue while the peer is
    locked, then in its live predecessor's queue while that one is locked
    (the paper's "will not accept any leave request ... process the join
    request first"); it arms no timer.  The triangle holds the peer's
    [leaving] lock and the predecessor's [joining] lock until its last
    leg, then drains both queues.  [op] is the trace operation id of the
    leave. *)
val leave : World.t -> ?op:int -> Peer.t -> on_done:(unit -> unit) -> unit

(** [wait_at peer k] queues the ring change [k] at [peer], behind the
    changes already waiting there.  Callers queue only at a locked peer,
    or a leave at a peer its join has not wired yet; [k] re-checks its
    conditions when it runs. *)
val wait_at : Peer.t -> (unit -> unit) -> unit

(** [process_queue peer] runs [peer]'s queued changes in order, stopping
    as soon as one takes [peer]'s lock again (or the queue empties).  The
    lock holders call it when they release: the join and leave triangles'
    last legs, and {!Hybrid}'s join completion for a leave that waited to
    be wired. *)
val process_queue : Peer.t -> unit

(** [promote_replacement w ~old_peer ~replacement ~transfer_data] executes
    the role transfer shared by graceful leave ([transfer_data = true])
    and crash recovery ([false]; the crashed peer's items are lost):
    [replacement] becomes a t-peer with [old_peer]'s p_id and ring
    pointers, its subtree follows it, [old_peer]'s remaining children
    rejoin under it, and every finger table substitutes [old_peer] with
    [replacement].  [op] attributes the orphan-rejoin messages in the
    trace. *)
val promote_replacement :
  World.t ->
  ?op:int ->
  old_peer:Peer.t ->
  replacement:Peer.t ->
  transfer_data:bool ->
  unit ->
  unit

(** [route_to_owner w ~from ~d_id ~visit ~on_arrive] forwards a data
    operation across the ring from the t-peer [from] to the t-peer owning
    [d_id]: by closest preceding finger while
    [Config.use_fingers_for_data] holds (the default), else to the
    successor.  [visit] runs at every t-peer the request reaches (including
    [from] and the owner) at message-arrival time, with the ring hops taken
    to reach it: [0] at [from], counting up by one per forwarding hop;
    [on_arrive] fires at the owner with the accumulated hop count.  [op]
    stamps every forwarding hop with the operation id in the trace. *)
val route_to_owner :
  World.t ->
  ?op:int ->
  from:Peer.t ->
  d_id:Id_space.id ->
  visit:(Peer.t -> hops:int -> unit) ->
  on_arrive:(owner:Peer.t -> hops:int -> unit) ->
  unit ->
  unit
