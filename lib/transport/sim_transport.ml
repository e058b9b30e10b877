(* Simulation backend of the transport seam: a thin adapter over
   [Underlay] (delivery with propagation delay and stress accounting)
   and [Timer] (engine-clock timers).  The adapter adds no scheduling of
   its own — every [send] maps 1:1 onto the same [Underlay.send] call
   the protocol code used to make directly, so event order and sequence
   numbers are bit-identical to the pre-seam code.  A closure payload is
   its own handler: the underlay runs it on delivery. *)

open P2p_sim

type payload = unit -> unit
type addr = int

type t = { engine : Engine.t; underlay : P2p_net.Underlay.t }

let make ~underlay = { engine = P2p_net.Underlay.engine underlay; underlay }

let now t = Engine.now t.engine

let send t ~src ~dst payload = P2p_net.Underlay.send t.underlay ~src ~dst payload

let one_shot t ?label ~delay f = Timer.one_shot ?label t.engine ~delay f

let periodic t ?label ~period f = Timer.periodic ?label t.engine ~period f

let transport t =
  {
    Transport.now = (fun () -> now t);
    send = (fun ~src ~dst f -> send t ~src ~dst f);
    one_shot = (fun ?label ~delay f -> one_shot t ?label ~delay f);
    periodic = (fun ?label ~period f -> periodic t ?label ~period f);
  }

let create ~underlay = transport (make ~underlay)
