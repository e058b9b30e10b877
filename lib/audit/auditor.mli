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

    Three driving modes, matching how the rest of the repo drives the
    engine:

    - {!settle} drains the event queue like [Engine.run], ticking
      whenever the simulated clock crosses a due time — the drop-in
      replacement for [Hybrid.run] in scenarios;
    - {!advance} plays the engine forward a fixed duration like
      [Hybrid.run_for], ticking at every due time in the window;
    - {!start}/{!stop} arm a self-rearming engine timer for callers that
      drive the engine themselves.  While started, the event queue never
      empties — drive with [run_for]/[run_until], not [run]. *)

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

val world : t -> Hybrid_p2p.World.t
val interval : t -> float

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

(** Whether the next periodic tick's due time has been reached — for
    callers driving the engine with their own step loop (e.g. one that
    interleaves metric sampling) instead of {!settle}/{!advance}. *)
val due : t -> bool

(** [settle t] executes pending events until the queue drains (like
    [Hybrid.run]), ticking whenever simulated time reaches a due time,
    plus one final tick at the drained state if anything ran since the
    last one. *)
val settle : t -> unit

(** [advance t ~ms] plays the engine forward [ms] simulated milliseconds
    (like [Hybrid.run_for]), ticking at every due time inside the
    window. *)
val advance : t -> ms:float -> unit

(** [start t] arms the periodic engine timer (no-op if armed). *)
val start : t -> unit

(** [stop t] cancels the periodic timer (no-op if not armed). *)
val stop : t -> unit

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

(** [result t] — [Ok ()] if no [Error]-severity violation was ever seen,
    otherwise the first one's description. *)
val result : t -> (unit, string) result
