(** Deterministic simulation backend of the transport seam.

    A thin adapter over {!P2p_net.Underlay} (message delivery with
    propagation delay and link stress) and {!P2p_sim.Timer}
    (engine-clock timers).  It introduces no scheduling of its own:
    [send] maps 1:1 onto [Underlay.send] and timers onto [Timer], so a
    simulation driven through this seam runs event for event like one
    calling the underlay directly. *)

type t

include
  Transport.S
    with type t := t
     and type payload = unit -> unit
     and type addr = int

(** [make ~underlay] builds the backend over an existing underlay (the
    engine is the underlay's engine). *)
val make : underlay:P2p_net.Underlay.t -> t

(** [transport t] is the first-class closure-payload record the protocol
    core stores. *)
val transport : t -> Transport.t

(** [create ~underlay] is [transport (make ~underlay)]. *)
val create : underlay:P2p_net.Underlay.t -> Transport.t
