(* The transport seam: what the protocol layers ask of the outside world
   — deliver a message to a peer, arm a timer, read the clock.  Two
   backends implement it: the deterministic simulation ([Sim_transport],
   closures over the event engine) and the live Unix loop
   ([Live_transport], wire-encoded messages over real sockets).  Both arm
   the same [P2p_sim.Timer.t] on an engine of their own.  The hybrid core
   sends closures, which only the simulation can carry; the live backend
   runs its own ring over [Wire] messages. *)

module type S = sig
  type t

  (** What travels: the sim instantiates this with closures (the message
      IS its own handler), the live backend with {!Wire.msg} values that
      must survive serialization. *)
  type payload

  (** How peers are named: dense host ints in the sim, node indices with
      a socket-address table in the live backend. *)
  type addr

  (** Monotonic transport clock, in milliseconds.  Simulated time or the
      wall clock. *)
  val now : t -> float

  (** [send t ~src ~dst payload] hands [payload] to the transport for
      delivery to [dst].  Operation ids do not cross the seam: the
      protocol layers trace a message as a span before sending it. *)
  val send : t -> src:addr -> dst:addr -> payload -> unit

  (** [one_shot t ~delay f] arms a timer on the transport clock.
      Cancelling a fired timer is a counted no-op (the [timer/cancel_late]
      counter), never a ghost queue entry. *)
  val one_shot : t -> ?label:string -> delay:float -> (unit -> unit) -> P2p_sim.Timer.t

  val periodic : t -> ?label:string -> period:float -> (unit -> unit) -> P2p_sim.Timer.t
end

(* First-class instance of the signature, specialised to the closure
   payload the in-process protocol core uses.  The core stores one of
   these in [World.t]; [Sim_transport.create] builds it over the event
   engine.  (A record of functions rather than a functor application so
   the backend can be picked at run time without functorising the whole
   protocol stack.) *)
type t = {
  now : unit -> float;
  send : src:int -> dst:int -> (unit -> unit) -> unit;
  one_shot : ?label:string -> delay:float -> (unit -> unit) -> P2p_sim.Timer.t;
  periodic : ?label:string -> period:float -> (unit -> unit) -> P2p_sim.Timer.t;
}

let now t = t.now ()

let send t ~src ~dst f = t.send ~src ~dst f

let one_shot t ?label ~delay f = t.one_shot ?label ~delay f

let periodic t ?label ~period f = t.periodic ?label ~period f
