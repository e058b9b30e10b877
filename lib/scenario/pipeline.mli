(** The run pipeline every [p2psim] subcommand shares: one system
    builder, one drive loop over an optional online auditor and an
    optional metrics sampler, one insert/lookup workload and one
    end-of-run verdict. *)

(** [config updates] applies each [(flag, update)] to
    [Hybrid_p2p.Config.default] in order and validates after each, so an
    invalid value is reported against the flag that set it. *)
val config :
  (string * (Hybrid_p2p.Config.t -> Hybrid_p2p.Config.t)) list ->
  (Hybrid_p2p.Config.t, [ `Msg of string ]) result

(** [topology_for n] is the transit-stub shape [build] generates for [n]
    peers: 3 transit domains of 3 nodes, 4 stub domains per transit
    node, stub domains as small as still gives at least [n] hosts. *)
val topology_for : int -> P2p_topology.Transit_stub.params

(** [build ~seed ~n ~config ()] is a system over a transit-stub underlay
    of at least [n] hosts, generated from seed [seed + 1].  With [ps],
    [n] peers join one at a time, each run to quiescence: s-peers with
    probability [ps], drawn from seed [seed + 2], and host 0 a t-peer.
    That generator is returned for the workload's later draws.
    [profile] (default off) turns on engine profiling. *)
val build :
  ?trace:P2p_sim.Trace.t -> ?profile:bool -> ?ps:float -> seed:int -> n:int ->
  config:Hybrid_p2p.Config.t -> unit -> Hybrid_p2p.Hybrid.t * P2p_sim.Rng.t

(** The replication manager, installed when [replication_factor > 0]. *)
val replication : Hybrid_p2p.Hybrid.t -> P2p_replication.Manager.t option

(** What a run writes and gates on when it ends.  [timeline_out] attaches
    a sampler polling every [timeline_interval] simulated ms; [dump_dir]
    attaches a flight recorder when a trace or an auditor feeds it;
    [gc_gauges] registers the [gc/*] gauges. *)
type outputs = {
  trace_out : string option;
  metrics_out : string option;
  profile : bool;
  timeline_out : string option;
  timeline_interval : float;
  slos : string list;
  dump_dir : string option;
  dump_on_exit : bool;
  gc_gauges : bool;
}

val no_outputs : outputs

(** A system with its observers attached. *)
type t

(** [attach ?auditor ?replication ?out h] attaches [auditor] and the
    observers [out] (default {!no_outputs}) asks for.  With [out.profile],
    the run's end prints a row of [replication]'s heal cost. *)
val attach :
  ?auditor:P2p_audit.Auditor.t -> ?replication:P2p_replication.Manager.t -> ?out:outputs ->
  Hybrid_p2p.Hybrid.t -> t

(** [install_replication t] is {!replication} on [t]'s system, attached
    as [attach]'s [replication] is. *)
val install_replication : t -> P2p_replication.Manager.t option

val hybrid : t -> Hybrid_p2p.Hybrid.t
val auditor : t -> P2p_audit.Auditor.t option

(** {1 Drive}

    With no auditor and no sampler, {!settle} is [Hybrid.run] and
    {!advance} is [Hybrid.run_for].  Audit ticks land at the same
    simulated times whether or not a sampler is attached. *)

(** [settle t] runs the engine until its queue drains.  Before each step
    the sampler polls and the auditor ticks if due; the auditor ticks
    once more at the drained state if anything ran since its last tick. *)
val settle : t -> unit

(** [advance t ~ms] runs the engine [ms] simulated ms forward.  The
    auditor ticks at each due time inside the window, the sampler at the
    end of each [timeline_interval] slice.
    @raise Invalid_argument if [ms < 0.] with an observer attached. *)
val advance : t -> ms:float -> unit

(** [anti_entropy t m ~ms] arms [m]'s anti-entropy timer, advances [ms],
    disarms it and settles. *)
val anti_entropy : t -> P2p_replication.Manager.t -> ms:float -> unit

(** {1 Workload} *)

(** [insert t ~rng ~count] inserts a {!P2p_workload.Keys} corpus of
    [count] items drawn from [rng], each from a random peer, settles and
    returns the corpus. *)
val insert : t -> rng:P2p_sim.Rng.t -> count:int -> P2p_workload.Keys.item array

(** [lookup t items] looks each item up from a random peer and settles. *)
val lookup : t -> P2p_workload.Keys.item array -> unit

(** {1 Verdict} *)

type end_state =
  | Check_final
      (** print the metrics and the [invariants:] line of
          {!P2p_audit.Checks.final}, and gate on it *)
  | Reported of (unit, string) result
      (** the caller's report printed the end state and the audit tally;
          gate on this result *)
  | Audit_only  (** the auditor alone decides *)

(** [finish ?inserted ?gate_lookups t ~end_state] prints the end state,
    writes the trace, metrics, profile and timeline, checks the SLOs,
    writes the flight dump if a gate tripped (or [dump_on_exit]), prints
    the audit summary (unless [Reported]), checks that [inserted] items
    are still stored and, with [gate_lookups] (default off), that no
    lookup failed.  Returns the exit code: 1 if any of these failed or
    the auditor saw a violation of either severity, else 0. *)
val finish : ?inserted:int -> ?gate_lookups:bool -> t -> end_state:end_state -> int
