(** Priority queue of timestamped events — the simulator's one event
    ordering policy.

    An indexed binary min-heap ordered by [(time, sequence)].  The
    sequence number is a monotonically increasing tie-breaker so that two
    events scheduled for the same instant fire in scheduling order.  Keys
    are unique, so the pop sequence is a pure function of the [add*] call
    sequence — this keeps simulations deterministic.  Cancellation is
    lazy: a cancelled event stays in the heap until it reaches the top and
    is then discarded — but when cancelled entries outnumber live ones the
    whole heap is compacted in one pass (amortized O(1) per cancellation),
    so timer-heavy churn cannot leak heap slots indefinitely.

    The heap order lives in three unboxed arrays indexed by heap position
    — times (float), sequence numbers and payload slots (int) — so a sift
    step moves only floats and ints.  Payloads and handles live in
    slot-indexed arrays: each is written once when its event is added and
    cleared once when it is removed, and never moves in between.  A
    pointer store into a long-lived array pays OCaml's write barrier; the
    sifts, which do O(log n) moves per event, pay none, which is what
    keeps a queue holding tens of thousands of events fast.  A removed
    event's payload is released at once, so the queue never keeps a
    popped or discarded payload alive; {!add_fast} skips the per-event
    handle. *)

type 'a t

(** Handle to a scheduled event, usable for cancellation. *)
type handle

(** [create ()] makes an empty queue. *)
val create : unit -> 'a t

(** [add t ~time v] schedules [v] at [time] and returns its handle. *)
val add : 'a t -> time:float -> 'a -> handle

(** [add_fast t ~time v] schedules [v] at [time] with no way to cancel
    it; the queue's shared never-dead handle is used, so the queue
    allocates nothing for it (beyond growing its arrays). *)
val add_fast : 'a t -> time:float -> 'a -> unit

(** A handle of no event, already cancelled: the placeholder of a
    mutable handle field before its first {!add}.  Cancelling it does
    nothing. *)
val null_handle : handle

(** [cancel h] marks the event dead; it will never be returned by
    [pop].  Cancelling twice is harmless. *)
val cancel : handle -> unit

(** [cancelled h] is [true] iff [h] has been cancelled. *)
val cancelled : handle -> bool

(** [pop t] removes and returns the earliest live event as
    [Some (time, v)], or [None] if the queue holds no live event. *)
val pop : 'a t -> (float * 'a) option

(** [pop_apply t f] removes the earliest live event and calls [f time v]
    on it, returning [true]; [false] (without calling [f]) if the queue
    holds no live event.  Equivalent to {!pop} but allocates nothing.
    The event is removed before [f] runs, so [f] may re-add. *)
val pop_apply : 'a t -> (float -> 'a -> unit) -> bool

(** [peek_time t] is the timestamp of the earliest live event, if any.
    Dead events at the front are discarded as a side effect. *)
val peek_time : 'a t -> float option

(** [next_time t] is the timestamp of the earliest live event, or
    [infinity] when none — {!peek_time} without the option allocation.
    Note: an event scheduled *at* time [infinity] is indistinguishable
    from emptiness here; use {!is_empty} to decide emptiness. *)
val next_time : 'a t -> float

(** [is_empty t] is [true] iff no live event remains.  Dead events at the
    front are discarded as a side effect. *)
val is_empty : 'a t -> bool

(** [live_length t] counts live events (O(1): the queue tracks its
    cancelled-but-present population). *)
val live_length : 'a t -> int

(** [length t] is the physical heap size — live plus not-yet-collected
    cancelled events (O(1)).  An upper bound on {!live_length}; as long
    as scheduling continues, insertion-time compaction keeps it within
    ~2× the live population plus a constant.  Cheap enough for per-event
    queue-depth profiling. *)
val length : 'a t -> int
