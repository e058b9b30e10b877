(** Subsystem-scoped metrics registry.

    One registry per simulated system collects every measured quantity
    under a [(subsystem, name)] key — ["t_network"/"joins_completed"],
    ["underlay"/"messages"], ["data_ops"/"lookup_latency_ms"], ... — so a
    run report can attribute cost per tier (t-network vs s-network vs
    underlay), which a single flat record cannot.

    Four metric shapes:
    - {e counters} — monotone event counts;
    - {e gauges} — last-written (or high-water) values;
    - {e histograms} — value distributions, backed by
      {!P2p_stats.Summary} so means, percentiles, and confidence
      intervals come for free;
    - {e log histograms} — {!Log_hist} latency distributions on a fixed
      geometric grid, mergeable across runs.

    Handles are get-or-create: [counter t ~subsystem ~name] returns the
    existing counter on every subsequent call, so call sites need no
    registration phase.  Registration order is preserved in every export,
    keeping output deterministic run to run. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** {1 Handles} — get-or-create; [Invalid_argument] if the name already
    holds a metric of a different shape. *)

val counter : t -> subsystem:string -> name:string -> counter
val gauge : t -> subsystem:string -> name:string -> gauge
val histogram : t -> subsystem:string -> name:string -> histogram

(** The handle is the {!Log_hist.t} itself; record with
    {!Log_hist.observe}. *)
val log_histogram : t -> subsystem:string -> name:string -> Log_hist.t

(** {1 Recording} *)

(** [incr ?by c] adds [by] (default [1]). *)
val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

(** [set g v] overwrites the gauge. *)
val set : gauge -> float -> unit

(** [set_max g v] keeps the maximum ever written — high-water marks. *)
val set_max : gauge -> float -> unit

val gauge_value : gauge -> float

(** [observe h v] adds one sample. *)
val observe : histogram -> float -> unit

(** The backing summary (shared, not a copy): read-side access to count,
    mean, percentiles, and raw samples. *)
val summary : histogram -> P2p_stats.Summary.t

(** [reset_values t] zeroes every metric in place — counters to [0],
    gauges to [0.], histogram samples discarded — while keeping every
    handle valid and the registration order intact.  Lets a bench sweep
    reuse one wired-up system across configurations without metrics
    accumulating across configs. *)
val reset_values : t -> unit

(** {1 Iteration} *)

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Log of Log_hist.t

type binding = { subsystem : string; name : string; metric : metric }

(** All registered metrics in registration order. *)
val bindings : t -> binding list

(** Distinct subsystems in first-registration order. *)
val subsystems : t -> string list

(** [histogram_bins ?bins s] buckets a summary's samples into [bins]
    (default [12]) fixed-width [(lo, count)] buckets over [[min, max]] —
    the shape data a report's ASCII histogram needs.  Empty summary gives
    [[]]; a constant summary gives one bucket. *)
val histogram_bins : ?bins:int -> P2p_stats.Summary.t -> (float * int) list

(** {1 The metrics document}

    The [subsystem/name] document every run ([--metrics-out]), scrape
    snapshot, flight dump and cluster merge writes.  This module is the
    only code that knows its JSON form: {!to_json} encodes it and
    {!Doc.of_json} decodes it, so readers ({!Report}, {!Scrape}, the
    CLI) work on the typed value. *)

module Doc : sig
  (** A summary histogram's exported statistics and {!histogram_bins}
      buckets: what survives the export, since raw samples do not.  All
      zero for an empty histogram. *)
  type summary = {
    count : int;
    mean : float;
    stddev : float;
    min : float;
    p50 : float;
    p90 : float;
    p99 : float;
    max : float;
    bins : (float * int) list;
  }

  type value =
    | Counter of int
    | Gauge of float
    | Histogram of summary
    | Log_histogram of Log_hist.t

  (** Subsystems in registration (or file) order, each with its metrics
      in order. *)
  type t = (string * (string * value) list) list

  val find : t -> subsystem:string -> name:string -> value option

  (** One object per subsystem, one field per metric:
      [{"kind":"counter","value":n}], [{"kind":"gauge","value":x}],
      [{"kind":"histogram","count":n,"mean":...,"bins":[...]}] (the
      count alone when empty), or the {!Log_hist.to_json} form. *)
  val to_json : t -> Json.t

  (** The inverse of {!to_json}: [Error] names the first field that is
      not a metric of a known kind. *)
  val of_json : Json.t -> (t, string) result
end

(** [doc t] snapshots every metric: summaries as their exported
    statistics, log histograms copied. *)
val doc : t -> Doc.t

(** [to_json t] is [Doc.to_json (doc t)]. *)
val to_json : t -> Json.t
