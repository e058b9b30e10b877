(** The transport seam between protocol logic and the outside world.

    The hybrid protocol (t-network ring, s-network trees, data
    operations, replication) needs exactly four capabilities: send a
    message to a peer, dispatch received messages, arm/cancel timers, and
    read a monotonic clock.  {!S} names them; two backends implement
    them:

    - {!Sim_transport} — a thin adapter over the deterministic event
      engine.  Payloads are closures, time is simulated, every existing
      test/bench/scenario runs unchanged (bit-identical event order).
    - {!Live_transport} — non-blocking TCP sockets with a select loop,
      per-connection connect/retry/backoff state machines and a
      wall-clock timer wheel.  Payloads are {!Wire.msg} values.

    The first-class record {!t} is the closure-payload instance the
    in-process protocol core holds (see [World.t]).  Operation ids do not
    cross the seam: the protocol layers trace a message as a span before
    they send it. *)

(** A backend's timer operations, one static table per backend. *)
type 'a timer_ops = {
  cancel : 'a -> unit;
  reset : 'a -> unit;
  active : 'a -> bool;
}

(** A cancellable timer.  Cancelling after the timer fired is a silent
    no-op counted by the backend that armed it (the engine's
    {!P2p_sim.Engine.cancel_late}, the wheel's
    {!Timer_wheel.cancel_late}); it never leaves a ghost entry in the
    underlying queue.

    A timer is one three-word block: the backend's own timer value (a
    {!P2p_sim.Timer.t} in the simulation, a wheel entry in the live
    backend) paired with that backend's static {!timer_ops} table.  A
    backend wraps each timer it arms in a {!Timer} and allocates nothing
    else for it; a pending protocol timer thus costs the block plus what
    the backend's timer holds. *)
type timer = Timer : 'a timer_ops * 'a -> timer

val cancel : timer -> unit
val reset : timer -> unit
val active : timer -> bool

(** The transport signature both backends satisfy. *)
module type S = sig
  type t
  type payload
  type addr

  val now : t -> float

  val send : t -> src:addr -> dst:addr -> payload -> unit

  val set_handler : t -> (src:addr -> dst:addr -> payload -> unit) -> unit

  val one_shot : t -> ?label:string -> delay:float -> (unit -> unit) -> timer

  val periodic : t -> ?label:string -> period:float -> (unit -> unit) -> timer
end

(** First-class closure-payload transport: what the protocol core stores
    and calls.  [send] delivers the closure to the destination host after
    the backend's propagation delay; [one_shot]/[periodic] arm timers on
    the backend clock. *)
type t = {
  now : unit -> float;
  send : src:int -> dst:int -> (unit -> unit) -> unit;
  one_shot : ?label:string -> delay:float -> (unit -> unit) -> timer;
  periodic : ?label:string -> period:float -> (unit -> unit) -> timer;
}

val now : t -> float

val send : t -> src:int -> dst:int -> (unit -> unit) -> unit

val one_shot : t -> ?label:string -> delay:float -> (unit -> unit) -> timer

val periodic : t -> ?label:string -> period:float -> (unit -> unit) -> timer
