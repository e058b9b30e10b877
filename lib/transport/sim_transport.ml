(* Simulation backend of the transport seam: a thin adapter over
   [Underlay] (delivery with propagation delay and stress accounting)
   and [Timer] (engine-clock timers).  The adapter adds no scheduling of
   its own — every [send] maps 1:1 onto the same [Underlay.send] call
   the protocol code used to make directly, so event order and sequence
   numbers are bit-identical to the pre-seam code. *)

open P2p_sim

type payload = unit -> unit
type addr = int

type t = {
  engine : Engine.t;
  underlay : P2p_net.Underlay.t;
  mutable handler : src:addr -> dst:addr -> payload -> unit;
  (* true while [handler] is still the identity dispatch below: [send]
     then hands the payload straight to the underlay instead of building
     a wrapper closure per message *)
  mutable default_dispatch : bool;
}

(* The closure payload is its own handler: the default dispatch just
   runs it.  [set_handler] exists for harnesses that want to observe or
   wrap deliveries. *)
let make ~underlay =
  {
    engine = P2p_net.Underlay.engine underlay;
    underlay;
    handler = (fun ~src:_ ~dst:_ f -> f ());
    default_dispatch = true;
  }

let now t = Engine.now t.engine

let send t ~src ~dst payload =
  if t.default_dispatch then P2p_net.Underlay.send t.underlay ~src ~dst payload
  else
    P2p_net.Underlay.send t.underlay ~src ~dst (fun () ->
        t.handler ~src ~dst payload)

let set_handler t f =
  t.handler <- f;
  t.default_dispatch <- false

let wrap tm =
  {
    Transport.cancel = (fun () -> Timer.cancel tm);
    reset = (fun () -> Timer.reset tm);
    active = (fun () -> Timer.active tm);
  }

let one_shot t ?label ~delay f = wrap (Timer.one_shot ?label t.engine ~delay f)

let periodic t ?label ~period f =
  wrap (Timer.periodic ?label t.engine ~period f)

let transport t =
  {
    Transport.now = (fun () -> now t);
    send = (fun ~src ~dst f -> send t ~src ~dst f);
    one_shot = (fun ?label ~delay f -> one_shot t ?label ~delay f);
    periodic = (fun ?label ~period f -> periodic t ?label ~period f);
  }

let create ~underlay = transport (make ~underlay)
