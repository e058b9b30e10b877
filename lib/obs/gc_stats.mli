(** OCaml runtime gauges fed from [Gc.counters] and [Gc.quick_stat].

    Registers, under subsystem ["gc"]:
    - [alloc_rate_mb_s] — MB allocated (minor + major, promotions not
      double-counted) per host {e CPU} second since the previous
      {!update};
    - [allocated_mb_total] — MB allocated since {!create};
    - [heap_mb] — major-heap size;
    - [minor_collections], [major_collections], [compactions] —
      lifetime collection counts.

    The allocation figures are current at every {!update}.  The heap
    size and collection counts are as of the runtime's last collection
    (OCaml 5 samples them only then); {!finish} makes them current.

    These are pull-style gauges: nothing updates them per event.  Wire
    {!update} as the {!Sampler}'s [on_sample] hook for a timeline view,
    and call {!finish} before exporting final metrics. *)

type t

(** [create reg] registers the gauges and anchors the deltas at the
    current allocation figures. *)
val create : Registry.t -> t

(** [update t] re-reads the runtime's counters and refreshes every gauge.  The
    allocation rate covers the window since the previous [update] (it is
    left unchanged when no CPU time has elapsed). *)
val update : t -> unit

(** [finish t] runs one minor collection, so the runtime samples its
    heap size and collection counts now, then {!update}s: the reading a
    run ends with. *)
val finish : t -> unit
