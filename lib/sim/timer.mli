(** Restartable one-shot and periodic timers on top of {!Engine}.

    The hybrid protocol of the paper leans heavily on timers: periodic HELLO
    heartbeats, per-neighbour crash-detection timeouts, lookup expiration
    timers, acknowledgment suppress timers and bypass-link expiry.  This
    module gives them a uniform interface with cheap reset (the paper resets
    a neighbour's timer on every HELLO or acknowledgment received). *)

type t

(** [one_shot engine ~delay f] arms a timer firing [f] once after [delay].
    The timer may be {!reset} (rearmed for a fresh [delay]) or {!cancel}ed
    before it fires.  [label] (default ["timer"]) is the engine profiling
    label of the scheduled event. *)
val one_shot : ?label:string -> Engine.t -> delay:float -> (unit -> unit) -> t

(** [periodic engine ~period f] fires [f] every [period], starting one
    [period] from now, until cancelled. *)
val periodic : ?label:string -> Engine.t -> period:float -> (unit -> unit) -> t

(** [reset t] rearms the timer: a one-shot fires a full delay from now, a
    periodic's next tick moves to one period from now.  Resetting a
    cancelled or already-fired one-shot re-arms it. *)
val reset : t -> unit

(** [cancel t] disarms the timer permanently until the next [reset].
    Cancelling a timer that already fired is a silent no-op counted by
    its engine ({!Engine.cancel_late}) — it leaves no ghost entry in the
    event queue.  Cancelling an already-cancelled timer is an uncounted
    no-op. *)
val cancel : t -> unit

(** [active t] is [true] iff the timer is armed. *)
val active : t -> bool
