(** What changed in a world since a reader last looked.

    A journal lets a reader re-check only what changed instead of the
    whole world.  Each world keeps two ({!Peer.log}), each with one
    reader: the peer records written, for the online audit — {!Peer}'s
    setters are the only writers of the audited fields ([Peer.t] is a
    private record), and the world journals the peers its registrations,
    ring merges and size-table writes concern through [Peer.log_change];
    and one {!Data_store.entry} per store write, for the replication
    heal.

    A journal is off until its reader {!restart}s it, and an off journal
    costs a write one branch.  Each restart begins a {e recording} with
    a fresh number.  A recording ends at the next restart or {!stop}, or
    when it overflows its limit: then the journal turns off and drops
    its entries, and its reader must fall back to a full scan. *)

type 'a t

val create : unit -> 'a t

(** A journal for writers of no world (a hand-wired negative host's
    stores, a bare test store): never on, so writes are recorded
    nowhere.  {!restart} rejects it. *)
val inert : unit -> 'a t

(** The current recording's number: [0] while off, else positive and
    never reused, also after an overflow.  {!Peer} stamps a written peer
    with it, and journals the peer only when its stamp differs. *)
val generation : 'a t -> int

(** [add t x] appends [x] to the current recording; no-op while off.
    The [limit + 1]-th entry turns the journal off and drops them all. *)
val add : 'a t -> 'a -> unit

(** [restart t ~limit] drops the entries and starts a recording of at
    most [limit] entries; returns its number.
    @raise Invalid_argument on an {!inert} journal. *)
val restart : 'a t -> limit:int -> int

(** [stop t] turns the journal off, so a reader's own writes go
    unrecorded; the entries stay readable until the next {!restart}. *)
val stop : 'a t -> unit

(** [readable t ~gen] — recording [gen] is on and has not overflowed:
    its entries name every write since it started. *)
val readable : 'a t -> gen:int -> bool

(** Entries since the last {!restart}; [0] after an overflow. *)
val length : 'a t -> int

(** [get t i] is the [i]-th entry, oldest first ([0 <= i < length t]).
    Nothing past {!length} is kept alive. *)
val get : 'a t -> int -> 'a
