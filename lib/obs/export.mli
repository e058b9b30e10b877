(** Serialization of traces and metric registries.

    Traces export as Chrome trace-event JSON, loadable by
    [ui.perfetto.dev] and [chrome://tracing]; registries export as a
    single JSON object ({!Registry.to_json} schema). *)

(** [metrics_to_string registry] — the registry snapshot as one JSON
    document. *)
val metrics_to_string : Registry.t -> string

(** The trace's completed spans as Chrome trace-event objects:
    [ph:"M"] process-name metadata first, then one [ph:"X"] complete
    event per completed span.  One process row per peer ([pid] 0 holds
    the operation root spans), one thread per operation id; simulated ms
    map to the format's microseconds.  [args] carries the span's [op],
    [span], [parent] and [label], and a root span's [outcome] (what
    {!P2p_sim.Trace.end_op} reported).  Still-open spans are skipped.  A
    cross-process aggregator pools several traces' events into one file
    ({!P2p_obs.Scrape.merged_chrome}). *)
val chrome_events : P2p_sim.Trace.t -> Json.t list

(** {1 Files} *)

(** [write_file ~path contents] writes (truncating) and closes. *)
val write_file : path:string -> string -> unit

(** [read_file path] reads a whole file.  @raise Sys_error on IO
    failure. *)
val read_file : string -> string

(** [write_trace ~path trace] writes {!chrome_events} as one JSON array,
    streaming it an event at a time. *)
val write_trace : path:string -> P2p_sim.Trace.t -> unit

val write_metrics : path:string -> Registry.t -> unit
