(** Which stored keys changed since the replication heal last looked.

    The log is how a heal pass re-examines only the keys a write could
    have moved instead of taking a census of every copy.  {!Data_store}
    is its only writer: every insert, removal, segment take and clear
    appends the interned key id it wrote, with the writing store's
    {e tag} — [2 · host] for a peer's primary store, [2 · host + 1] for
    its replica store ({!Peer.make} assigns them) — so the reader learns
    both which keys and which holders changed.  A peer entering or
    leaving the membership appends each key its stores hold
    ({!Data_store.note_held}), since no store write announces that move.

    A log is off until {!restart} turns it on; an off log costs each
    store write one branch.  A log that overflows its entry limit turns
    itself off and drops its entries: its reader must fall back to a
    full census, as on its first pass. *)

type t

val create : unit -> t

(** The log of stores that belong to no world (a hand-wired negative
    host, a bare test store): never on, so their writes cost one branch
    and are recorded nowhere.  {!restart} rejects it. *)
val inert : t

(** [note t ~kid ~tag] records a write of key id [kid] to the store
    tagged [tag].  No-op while off. *)
val note : t -> kid:int -> tag:int -> unit

(** [restart t ~limit] empties the log and turns it on for a new
    recording, whose number it returns; past [limit] entries the
    recording overflows.
    @raise Invalid_argument on {!inert}. *)
val restart : t -> limit:int -> int

(** [stop t] turns the log off (a reader's own writes go unrecorded). *)
val stop : t -> unit

(** [readable t ~gen] — recording [gen] is the current one, neither
    overflowed nor stopped: the entries name every store write, and
    every copy a membership move carried, since it started.  A second
    reader's {!restart} ends the first's recording. *)
val readable : t -> gen:int -> bool

(** [on t] — recording now. *)
val on : t -> bool

(** Entries recorded since the last {!restart}. *)
val length : t -> int

(** [kid t i] and [tag t i] — the [i]-th entry, oldest first. *)
val kid : t -> int -> int

val tag : t -> int -> int
