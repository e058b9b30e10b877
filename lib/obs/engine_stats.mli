(** Engine occupancy gauges.

    [record reg engine] snapshots the engine into [reg]:
    - ["engine/events_executed"], ["engine/queue_high_water"] — the
      whole-engine figures;
    - ["timer/cancel_late"] — cancels of this engine's timers that
      arrived after the timer had fired ({!P2p_sim.Engine.cancel_late}):
      each world counts its own, however many share the process.

    Pull-style like {!Gc_stats}: call it from the {!Sampler}'s
    [on_sample] hook for a timeline, and once before exporting final
    metrics. *)

val record : Registry.t -> P2p_sim.Engine.t -> unit
