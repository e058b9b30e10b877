(** Critical-path analysis over {!P2p_sim.Trace} causal span trees.

    For every completed operation retained in the trace, reconstructs the
    longest causal chain of child spans inside the op's root interval by
    a backward sweep (latest-stopping span first, cursor jumping to each
    chosen span's start).  The chain's segments are disjoint and
    contained in the root interval, so [critical_ms <= total_ms] holds by
    construction — the invariant the [latency_sanity] audit check
    verifies. *)

(** One segment of a critical path. *)
type segment = { seg_tier : string; seg_phase : string; seg_ms : float }

(** The analysis of one completed operation. *)
type op = {
  op_id : int;
  kind : string;  (** the op kind's wire name, e.g. ["lookup"] *)
  op_start : float;
  op_stop : float;
  total_ms : float;  (** root span duration *)
  critical_ms : float;  (** sum of the chain's segment durations *)
  chain : segment list;  (** earliest segment first *)
  span_count : int;  (** completed non-root spans of the op *)
}

(** Duration of a completed span; [0.] while open. *)
val duration : P2p_sim.Trace.span -> float

(** [analyze ~root children] is the analysis of the closed root span
    [root] over [children], its op's completed non-root spans, newest
    (highest id) first: the order {!completed} passes, which decides
    between spans that stop at the same instant. *)
val analyze : root:P2p_sim.Trace.span -> P2p_sim.Trace.span list -> op

(** All completed operations retained in the trace, oldest first. *)
val completed : P2p_sim.Trace.t -> op list

(** [record_totals reg trace] installs the op-completion listener that
    feeds [latency/<kind>_total_ms] from every completed operation,
    sampled or not.  It is those histograms' only writer: every enabled
    trace on a user path gets it at creation ([Hybrid.create],
    [Live_node.create]). *)
val record_totals : Registry.t -> P2p_sim.Trace.t -> unit

(** [record reg trace] folds the analysis into [reg]: log-bucketed
    latency histograms [latency/<kind>_critical_ms] and
    [phase_<phase>_ms], per-tier critical-path attribution gauges
    [latency/<kind>_tier_<tier>_ms], and span-health gauges under
    [trace/]. *)
val record : Registry.t -> P2p_sim.Trace.t -> unit
