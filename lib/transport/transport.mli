(** The transport seam between protocol logic and the outside world.

    A protocol needs four capabilities: send a message to a peer,
    dispatch received messages, arm and cancel timers, and read a
    monotonic clock.  {!S} names the three a caller drives; each backend
    installs its own receive dispatch.  Two backends implement it:

    - {!Sim_transport} — a thin adapter over the deterministic event
      engine.  Payloads are closures, each its own handler, and time is
      simulated.
    - {!Live_transport} — non-blocking TCP sockets with a select loop
      and per-connection connect/retry/backoff state machines.  Payloads
      are {!Wire.msg} values, and its handler is set with
      {!Live_transport.set_handler}.

    Both arm the same {!P2p_sim.Timer.t}: the simulation on its engine,
    the live loop on an engine of its own that each {!Live_transport.step}
    advances to the wall clock.  Protocol code cancels, resets and tests
    a timer with {!P2p_sim.Timer}'s own functions on either backend.

    The hybrid core sends closures, so it runs only on the simulation;
    the live backend runs {!Live_node}'s ring over {!Wire} messages.  The
    first-class record {!t} is the closure-payload instance the core
    holds (see [World.t]).  Operation ids do not cross the seam: the
    protocol layers trace a message as a span before they send it. *)

(** The transport signature both backends satisfy.  [one_shot] and
    [periodic] arm a timer on the backend clock; cancelling it after it
    fired is a no-op counted by the engine that armed it
    ({!P2p_sim.Engine.cancel_late}), and leaves no ghost entry in the
    queue. *)
module type S = sig
  type t
  type payload
  type addr

  val now : t -> float

  val send : t -> src:addr -> dst:addr -> payload -> unit

  val one_shot : t -> ?label:string -> delay:float -> (unit -> unit) -> P2p_sim.Timer.t

  val periodic : t -> ?label:string -> period:float -> (unit -> unit) -> P2p_sim.Timer.t
end

(** First-class closure-payload transport: what the protocol core stores
    and calls.  [send] delivers the closure to the destination host after
    the backend's propagation delay; [one_shot]/[periodic] arm timers on
    the backend clock. *)
type t = {
  now : unit -> float;
  send : src:int -> dst:int -> (unit -> unit) -> unit;
  one_shot : ?label:string -> delay:float -> (unit -> unit) -> P2p_sim.Timer.t;
  periodic : ?label:string -> period:float -> (unit -> unit) -> P2p_sim.Timer.t;
}

val now : t -> float

val send : t -> src:int -> dst:int -> (unit -> unit) -> unit

val one_shot : t -> ?label:string -> delay:float -> (unit -> unit) -> P2p_sim.Timer.t

val periodic : t -> ?label:string -> period:float -> (unit -> unit) -> P2p_sim.Timer.t
