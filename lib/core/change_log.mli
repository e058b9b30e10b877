(** What changed in a world since the audit last looked.

    The log is how an online audit tick re-verifies only what changed
    instead of the whole world: the list of every peer record written
    since the log was last restarted, once each.  {!Peer}'s setters are
    the only writers of the audited peer fields and each stamps the log,
    so the list is complete by construction ([Peer.t] is a private
    record).  The world logs the peers its own changes concern — a
    registration, a ring merge, a size-table write — through
    [Peer.log_change].  Peers are kept as records, not hosts: a crashed,
    unregistered or hand-wired (negative-host) peer is still found.

    A log is off until {!restart} first turns it on; an off log costs one
    stamp compare per write.  A generation ends when its reader restarts
    the log.  A generation that overflows its entry limit is {e lost}: it
    stops recording, and its reader must fall back to a full scan. *)

(** A log; ['p] is the peer record type. *)
type 'p t

val create : unit -> 'p t

(** The current generation: [0] while off, else positive and never
    reused.  {!Peer} stamps a written peer with it, and logs the peer only
    when its stamp differs. *)
val generation : 'p t -> int

(** [add_peer t p] appends [p] to the current generation's peers — the
    caller has checked and updated [p]'s stamp.  No-op while off. *)
val add_peer : 'p t -> 'p -> unit

(** [restart t ~limit] ends the current generation and starts a fresh
    one, turned on, that holds at most [limit] entries before it is lost.
    Returns the new generation. *)
val restart : 'p t -> limit:int -> int

(** [readable t ~gen] — the log is on generation [gen] and that
    generation is not lost: {!peers} lists every change since [gen]
    started. *)
val readable : 'p t -> gen:int -> bool

(** Peers written this generation, newest first. *)
val peers : 'p t -> 'p list

(** The key-level half: the log every store of this world's peers
    notes its writes in ({!Peer.make} wires it), read by the replication
    heal.  It has its own reader and on/off state. *)
val keys : 'p t -> Key_log.t
