(** Wall-clock timer wheel for the live transport.

    Same semantics as the engine-clock {!P2p_sim.Timer} — restartable
    one-shots and periodics, cancel-after-fire is a no-op counted by the
    wheel ({!cancel_late}), as the engine counts its own —
    but driven by an external event loop instead of the simulation
    engine: the loop sleeps until {!next_deadline} and then calls
    {!run_due}. *)

type t

(** [create ~clock] makes an empty wheel reading time (any monotone
    unit; the live loop uses milliseconds) from [clock]. *)
val create : clock:(unit -> float) -> t

val one_shot : t -> delay:float -> (unit -> unit) -> Transport.timer
val periodic : t -> period:float -> (unit -> unit) -> Transport.timer

(** Earliest pending deadline, in clock units, if any timer is armed. *)
val next_deadline : t -> float option

(** Cancels that arrived after their timer had fired: the live node's
    [timer/cancel_late] figure. *)
val cancel_late : t -> int

(** Number of armed timers. *)
val pending : t -> int

(** [run_due t] fires every timer due at or before [clock ()], in
    deadline order, and returns how many fired.  Periodics re-arm
    before their action runs. *)
val run_due : t -> int
