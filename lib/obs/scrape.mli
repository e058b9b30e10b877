(** Versioned per-process observability snapshots and their cluster
    merge.

    One {!snapshot} is what a live node returns to a scrape: liveness
    and ring-position health plus its full {!Registry} export, and
    optionally the chrome span events its trace retains.  The metrics
    are a {!Registry.Doc.t}, encoded and decoded by {!Registry}; a
    snapshot whose metrics do not decode is rejected by {!of_json}.  The
    aggregator merges decoded snapshots: counters sum, gauges keep the
    cluster maximum, {!Log_hist} latency histograms merge bucketwise —
    so a cluster p99 is computed on the merged distribution, never
    averaged across nodes.  Summary-backed plain
    histograms cannot be rebuilt from their export bins and are skipped
    by the merge (they remain visible per node). *)

(** Bumped when the snapshot schema changes; {!of_string} rejects
    versions it does not know. *)
val snapshot_version : int

type snapshot = {
  node : int;
  at : float;  (** snapshot time, ms on the cluster-shared epoch *)
  uptime_ms : float;
  ready : bool;
  p_id : int;
  succ : int;
  pred : int;
  store : int;
  violations : int;
  metrics : Registry.Doc.t;
  trace : Json.t list;  (** chrome span events; [[]] unless requested *)
}

val to_json : snapshot -> Json.t
val to_string : snapshot -> string

val of_json : Json.t -> (snapshot, string) result
val of_string : string -> (snapshot, string) result

(** [metrics_of_json j] — the metrics of a snapshot, or of a bare
    {!Registry.to_json} document. *)
val metrics_of_json : Json.t -> (Registry.Doc.t, string) result

(** [merge docs] — one registry holding every document's metrics:
    counters add, gauges keep the maximum, log histograms merge
    bucketwise.  Summary histograms, and a name that holds another
    shape in an earlier document, are skipped. *)
val merge : Registry.Doc.t list -> Registry.t

(** [merge] over the snapshots' metrics. *)
val merged_registry : snapshot list -> Registry.t

(** All snapshots' span events pooled into one chrome trace-event array
    (JSON), per-node [ph:"M"] metadata replaced by a single re-derived
    process-name set — load it in ui.perfetto.dev to see one track per
    process with cross-process span trees intact. *)
val merged_chrome : snapshot list -> Json.t

(** A fixed-width per-node table plus a cluster summary line — the body
    [p2psim top] refreshes. *)
val render_table : snapshot list -> string
