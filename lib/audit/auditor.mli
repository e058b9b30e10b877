(** Online invariant monitor: the {!Checks} catalogue on a cadence.

    An auditor is bound to one live system and runs its check selection
    every [interval] simulated milliseconds, reporting through the
    observability substrate:

    - each tick is a traced operation (kind [Custom "audit"]), and every
      violation found lands in the trace as a severity-tagged event
      ([audit-error] / [audit-warning]) under that operation id — so
      damage is localized in the run's timeline, not just counted;
    - the registry (under the ["audit"] subsystem) carries a [ticks]
      counter, a per-check [<name>_violations] counter, a per-check
      [<name>_last_run_ms] freshness gauge, and every health gauge the
      checks produce (load-balance spread, peers in transit, ...);
    - the auditor itself keeps a violations-over-time timeline and the
      last snapshot for end-of-run summaries.

    The auditor keeps a {!Checks.state} from tick to tick, so a tick
    costs what changed since the last one rather than the whole trace
    history (see {!Checks} for each check's cost).  Every snapshot is
    exactly what {!Checks.run_all} from a fresh state returns at the
    same instant.

    The auditor schedules nothing itself: [P2p_scenario.Pipeline.settle]
    and [P2p_scenario.Pipeline.advance] drive the engine and tick
    whenever the simulated clock reaches {!next_due}. *)

type t

(** [create ?interval ?checks w] binds an auditor to [w].  [interval]
    (default [250.] simulated ms) is the audit cadence; [checks] (default
    {!Checks.all}) selects the catalogue subset.  The [ticks] counter
    and each check's [<name>_violations] counter and
    [<name>_last_run_ms] gauge are registered here, so exports show
    zeroed rows even before the first tick.  A check's health gauges are
    registered at the first tick that reports them, and their handles
    cached for later ticks.
    @raise Invalid_argument if [interval <= 0.]. *)
val create :
  ?interval:float -> ?checks:Checks.check list -> Hybrid_p2p.World.t -> t

(** [set_on_violation t f] — call [f] for every violation any future
    tick finds (severity is the trace tag, ["audit-error"] or
    ["audit-warning"]).  The flight recorder hooks in here so audit
    findings appear in dumps alongside the op completions surrounding
    them.  Replaces any previously set callback. *)
val set_on_violation :
  t ->
  (time:float -> check:string -> severity:string -> detail:string -> unit) ->
  unit

(** [set_on_snapshot t f] — call [f] with every future tick's snapshot,
    right after the checks ran and before anything is recorded, so [f]
    sees the world and trace at the instant the checks saw them.
    Replaces any previously set callback. *)
val set_on_snapshot : t -> (Checks.snapshot -> unit) -> unit

(** [tick t] runs the catalogue right now, unconditionally, and records
    the results; returns the snapshot.  Resets the cadence: the next
    periodic tick is due [interval] from now. *)
val tick : t -> Checks.snapshot

(** The simulated time the next periodic tick is due: [interval] after
    the last tick, or after creation before the first. *)
val next_due : t -> float

(** Whether the simulated clock has reached {!next_due}. *)
val due : t -> bool

(** {1 Accumulated results} *)

(** Number of audit ticks run so far. *)
val ticks : t -> int

(** Total violations (both severities) across all ticks. *)
val violations_total : t -> int

(** Total [Error]-severity violations across all ticks. *)
val errors_total : t -> int

(** The most recent snapshot, if any tick has run. *)
val last_snapshot : t -> Checks.snapshot option

(** [(time, violations_found)] per tick, oldest first — the
    violations-over-time series scenario reports summarize. *)
val timeline : t -> (float * int) list

(** The {!Checks.state} the auditor ticks with: what its checks carry
    from tick to tick, and the last tick's cost ({!Checks.reverified},
    {!Checks.full_scans}). *)
val checks_state : t -> Checks.state

(** [(check, ticks, cpu_seconds)] per check over the ticks run while the
    engine was profiling ({!P2p_sim.Engine.profiling}); empty otherwise.
    [run --profile] prints them after the engine's rows. *)
val check_times : t -> (string * int * float) list
