(* Engine occupancy folded into the registry: "engine/*" carries the
   whole-engine figures, "timer/cancel_late" the late-cancel count. *)

module Engine = P2p_sim.Engine

let record reg engine =
  let set sub name v =
    Registry.set (Registry.gauge reg ~subsystem:sub ~name) v
  in
  set "engine" "events_executed"
    (float_of_int (Engine.events_executed engine));
  set "engine" "queue_high_water"
    (float_of_int (Engine.queue_high_water engine));
  (* cancels of this engine's timers that arrived after the fire *)
  set "timer" "cancel_late" (float_of_int (Engine.cancel_late engine));
