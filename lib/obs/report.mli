(** Run reports: render a metrics document for a terminal.

    [p2psim report m.json] decodes a file written by
    {!Export.write_metrics} (or a [serve] scrape) with
    {!Registry.Doc.of_json}, which owns the format; this module only
    renders the decoded {!Registry.Doc.t}: per-subsystem counter tables
    and ASCII histograms (via {!P2p_stats.Ascii_plot}), so a run's cost
    profile is readable without any external tooling. *)

(** [render doc] — the full human-readable report: one [== subsystem ==]
    section each, counters/gauges aligned, histograms with summary lines
    and bar charts.  An ["audit"] subsystem (written by the online
    invariant auditor) renders as a "health" section instead: one
    OK / VIOLATED row per check, with last-run freshness, followed by the
    health gauges.  A ["latency"] subsystem (written by the span
    analyzer, {!Spans.record}) renders as a percentile table
    (p50/p90/p95/p99/p99.9/max per op kind and phase) plus per-tier
    critical-path attribution lines.  A ["gc"] subsystem becomes the
    one-line [runtime:] header at the top. *)
val render : Registry.Doc.t -> string

(** [render_timeline text] renders a sampler timeline (JSONL written by
    {!Sampler.to_string}) as ASCII sparklines: one row per active series,
    counters as per-interval increments, gauges as raw values. *)
val render_timeline : string -> (string, string) result
