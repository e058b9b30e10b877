(** The peer: a single participant of the hybrid system.

    A peer is either a {e t-peer} — a member of the structured ring
    (t-network) and root of its attached s-network tree — or an {e s-peer}
    hanging inside exactly one s-network tree.  The record is private:
    the protocol modules ([T_network], [S_network], [Data_ops], [Failure])
    read its fields and write them through the setters below, and
    {!Hybrid} presents the safe facade.  Each setter of an audited field
    journals the peer in its world's [log.peers] {!Change_log}, so the
    online audit re-verifies exactly the peers written since its last
    tick.

    Pure structural helpers (tree walks, degree accounting, segment tests)
    live here so the protocol modules stay focused on message flows. *)

open P2p_hashspace

type role = T_peer | S_peer

type t = private {
  host : int;  (** physical node the peer runs on; also its address *)
  mutable p_id : Id_space.id;
      (** ring ID; an s-peer carries its t-peer's p_id (Section 3.2.2) *)
  mutable role : role;
  mutable alive : bool;
  link_capacity : float;  (** access-link capacity (Section 5.1) *)
  interest : int option;  (** interest category (Section 5.3) *)
  (* t-network state *)
  mutable succ : t option;
  mutable pred : t option;
  mutable fingers : t option array;
      (** length [Id_space.bits]; t-peers only.  Read it through
          {!World.fingers}, which brings it up to date first, and write
          its entries only through {!set_finger}: the array itself is
          mutable, so the type cannot keep an unlogged write out. *)
  mutable joining : bool;
      (** segment lock: a join triangle after me, or my successor's leave
          triangle, is in flight *)
  mutable leaving : bool;  (** segment lock: I am executing the leave triangle *)
  mutable join_queue : (unit -> unit) list;
      (** ring changes waiting for my segment lock, FIFO, newest last: a
          join whose predecessor I am, a leave of mine or of my successor,
          and, until my own join wires me, my leave (Section 3.3).
          {!T_network.process_queue} runs them. *)
  (* s-network state *)
  mutable t_home : t option;  (** t-peer of my s-network; self for t-peers *)
  mutable cp : t option;  (** connect point = tree parent; [None] for roots *)
  mutable children : t list;
  (* data *)
  store : Data_store.t;
  replicas : Data_store.t;
      (** redundant copies held on behalf of other peers' segments when
          replication is on ({!P2p_replication}); kept apart from [store]
          so primary-placement invariants and item accounting are
          untouched.  Replica reads are a lookup fallback, never the
          primary path. *)
  (* feature tables: each is [None] until its first write through the
     functions under "Feature tables" below, and a crash or hand-over
     sets it back to [None]; most peers never write one *)
  mutable cache : Cache.t option;
      (** soft cache of popular items (Section-7 future work); created by
          the first {!cache_put}, so only when [cache_capacity > 0] and
          only at a peer that completed a lookup *)
  mutable summaries : (int, Bloom.t array) Hashtbl.t option;
      (** child host -> attenuated Bloom summary of the keys in that
          child's subtree, one filter per depth level.  Maintained by
          {!Summaries}: created at a peer with a live child when edge
          summaries are enabled, dropped at each rebuild. *)
  mutable summaries_epoch : int;
      (** at tree roots: the {!World.t} summary epoch this tree's
          summaries were last rebuilt against; [-1] = never / stale *)
  mutable tracker_index : (string, t) Hashtbl.t option;
      (** BitTorrent-style mode only: at a t-peer, maps keys stored anywhere
          in its s-network to the holding peer; created by the first
          report, dropped when the t-peer crashes or hands its segment
          to a replacement *)
  (* bypass links, with absolute expiry times *)
  mutable bypass : (t * float) list;
  (* failure detection bookkeeping (driven by the [Failure] module) *)
  mutable watchdogs : (int, P2p_sim.Timer.t) Hashtbl.t option;
      (** neighbour host -> HELLO watchdog; created by the first armed
          watchdog (heartbeats on), dropped when the peer crashes *)
  mutable hello_timer : P2p_sim.Timer.t option;
  mutable last_ack_sent : float;  (** for the suppress timer *)
  log : log;  (** the world's change journal ({!World.change_log}) *)
  mutable logged : int;  (** the recording this peer was last journaled in *)
}

(** A world's change journal, one {!Change_log} per reader: [peers]
    written, for the online audit, and [keys] written, one
    {!Data_store.entry} each, for the replication heal. *)
and log = { peers : t Change_log.t; keys : int Change_log.t }

(** [make ~log ~interner ~host ~p_id ~role ~link_capacity ()] allocates a
    fresh, unconnected peer with no feature table.  [interner] is shared
    by the peer's store and replica store.  [log.peers] journals the
    peer's writes, and [log.keys] its stores' writes, under the {e holder
    tags} [2 · host] for [store] and [2 · host + 1] for [replicas]
    (a negative host's stores journal nowhere).  Both must be the
    world's ({!World.interner}, {!World.change_log}) for the peer to
    register. *)
val make :
  log:log ->
  interner:Intern.t ->
  host:int -> p_id:Id_space.id -> role:role -> link_capacity:float ->
  ?interest:int -> unit -> t

(** {1 Holder tags}

    A tag names one store world-wide ({!make}); ascending tags are host
    order, each peer's [store] before its [replicas].  [tag_host tag] is
    the store's host, and [tagged_store p tag] the store itself when [p]
    is the peer on that host. *)

val tag_host : int -> int
val is_replica_tag : int -> bool
val tagged_store : t -> int -> Data_store.t

(** {1 Setters}

    The only writers of the record.  Each setter of an audited field —
    [p_id], [role], [alive], [succ], [pred], [fingers], the [joining] /
    [leaving] / [join_queue] mutexes, [t_home], [cp], [children] — logs
    the peer first. *)

(** [log_change p] logs [p] as written without writing a field: the
    world's membership changes ({!World.register}, a ring merge) and
    size-table writes ({!World.set_snet_size}) use it. *)
val log_change : t -> unit

val set_p_id : t -> Id_space.id -> unit
val set_role : t -> role -> unit
val set_alive : t -> bool -> unit
val set_succ : t -> t option -> unit
val set_pred : t -> t option -> unit
val set_joining : t -> bool -> unit
val set_leaving : t -> bool -> unit
val set_join_queue : t -> (unit -> unit) list -> unit
val set_t_home : t -> t option -> unit
val set_cp : t -> t option -> unit

(** [set_children p l] also logs every child of [p] that [l] drops. *)
val set_children : t -> t list -> unit

val set_fingers : t -> t option array -> unit

(** [set_finger p k f] writes entry [k] of [p]'s finger table. *)
val set_finger : t -> int -> t option -> unit

(** [refill_finger p k f] is {!set_finger} without the log: only for
    {!World.fingers}' lazy refill, which writes what the eager schedule
    already holds.  The audit compares finger tables only while the ring
    is unchanged since the last refresh point, and then a refill equals
    the oracle by construction. *)
val refill_finger : t -> int -> t option -> unit

(** Unaudited fields. *)

val set_summaries_epoch : t -> int -> unit
val set_bypass : t -> (t * float) list -> unit
val set_hello_timer : t -> P2p_sim.Timer.t option -> unit
val set_last_ack_sent : t -> float -> unit

(** {1:features Feature tables}

    Each table is allocated by its first write and private to its peer;
    one never written reads as empty. *)

(** [summary p host] is [p]'s edge summary toward its child [host]. *)
val summary : t -> int -> Bloom.t array option

val set_summary : t -> int -> Bloom.t array -> unit
val drop_summaries : t -> unit

(** [tracked p key] is the holder [p]'s tracker index names for [key]. *)
val tracked : t -> string -> t option

val set_tracked : t -> string -> t -> unit
val remove_tracked : t -> string -> unit
val drop_tracker_index : t -> unit

(** [watchdog p host] is [p]'s armed watchdog on neighbour [host]. *)
val watchdog : t -> int -> P2p_sim.Timer.t option

val set_watchdog : t -> int -> P2p_sim.Timer.t -> unit
val remove_watchdog : t -> int -> unit

(** [drop_watchdogs p] forgets the table; it cancels no timer. *)
val drop_watchdogs : t -> unit

(** [cached p ~now ~key] is {!Cache.find} on [p]'s soft cache. *)
val cached : t -> now:float -> key:string -> string option

(** [cache_put p ~capacity ~now ~lifetime ~key ~value] is {!Cache.put}
    on [p]'s soft cache, created with [capacity] entries on the first
    call; a no-op when [capacity = 0]. *)
val cache_put :
  t -> capacity:int -> now:float -> lifetime:float -> key:string -> value:string -> unit

val drop_cache : t -> unit

(** {1 Role and segment} *)

val is_t_peer : t -> bool
val is_s_peer : t -> bool

(** [segment_left peer] is the exclusive left bound of the ID segment
    peer's s-network serves: the predecessor's p_id (or its own when alone
    on the ring).  Meaningful for t-peers. *)
val segment_left : t -> Id_space.id

(** [covers tpeer d_id] — does [tpeer]'s s-network serve [d_id]? *)
val covers : t -> Id_space.id -> bool

(** [quiet peer] — alive with no join/leave mutex engaged and an empty
    join queue.  Online checks only judge ring segments whose endpoints
    are quiet: a non-quiet peer's pointers may be mid-rewire inside a
    join/leave triangle, which is protocol, not damage. *)
val quiet : t -> bool

(** {1 Tree structure} *)

(** Tree degree: children plus one for the connect point if present.  The
    paper's δ constraint applies to this number. *)
val tree_degree : t -> int

(** [has_free_slot config peer] — may [peer] accept one more child under
    the degree constraint (and, when enabled, the link-usage rule of
    Section 5.1)? *)
val has_free_slot : Config.t -> t -> bool

(** [attach_child ~parent ~child] wires the tree edge and the child's
    [cp]/[t_home]/[p_id]. *)
val attach_child : parent:t -> child:t -> unit

(** [detach_child ~parent ~child] unwires the edge; the child keeps its
    subtree. *)
val detach_child : parent:t -> child:t -> unit

(** [tree_members root] lists the whole s-network below (and including)
    [root] in preorder. *)
val tree_members : t -> t list

(** [tree_neighbors peer] is [cp @ children] — every s-network link. *)
val tree_neighbors : t -> t list

(** [live_subtree_roots children] finds the roots of the live subtrees in a
    children forest, looking through dead intermediate nodes: a live child
    is a root itself; a dead child contributes the live roots beneath it. *)
val live_subtree_roots : t list -> t list

(** [depth peer] is the number of cp hops to the tree root. *)
val depth : t -> int

(** {1 Bypass links} *)

(** [live_bypass peer ~now] prunes expired bypass links and returns the
    remaining targets. *)
val live_bypass : t -> now:float -> t list

(** [add_bypass config peer target ~now] installs or refreshes a bypass
    link if allowed (degree budget, Section 5.4 rule 1; both peers alive;
    no self-link). *)
val add_bypass : Config.t -> t -> t -> now:float -> unit

val pp : Format.formatter -> t -> unit
