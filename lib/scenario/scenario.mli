(** Declarative scenario scripts for the hybrid system.

    A scenario is a list of actions executed in order against a
    {!Hybrid_p2p.Hybrid.t}: membership churn, data operations, crash
    storms, time advancement.  The runner tracks what happened and reports
    a summary with the final invariant check — the backbone of the
    integration tests and a convenient harness for users experimenting
    with the system.

    Example — a flash-crowd-under-churn scenario:
    {[
      let report =
        Scenario.exec (Pipeline.attach h) ~seed:7
          ~script:
            [ Join_many (100, 0.7); Insert_items 500; Settle;
              Crash_fraction 0.2; Repair; Settle;
              Lookup_items 500; Settle ]
      in
      assert (Result.is_ok report.invariants)
    ]} *)

type action =
  | Join_t  (** one structured peer joins *)
  | Join_s  (** one unstructured peer joins (t-peer if the system is empty) *)
  | Join_many of int * float
      (** [(count, s_fraction)] peers join, settling between joins *)
  | Leave_random  (** a uniformly random peer departs gracefully *)
  | Crash_random  (** a uniformly random peer crashes *)
  | Crash_fraction of float  (** that fraction of the population crashes at once *)
  | Repair  (** offline repair of all crash damage *)
  | Insert_items of int  (** insert that many fresh items from random peers *)
  | Lookup_items of int
      (** look up that many uniformly drawn previously inserted items *)
  | Settle  (** drive the engine to quiescence *)
  | Advance of float  (** advance the clock by that many ms *)
  | Anti_entropy of float
      (** run with the periodic anti-entropy timer armed for that many
          ms, then disarm and settle.  No-op unless the system's config
          enables replication (the runner installs the
          {!P2p_replication.Manager} automatically when
          [replication_factor > 0]). *)

(** What the online auditor saw across the whole run (present only when
    the pipeline has an auditor). *)
type audit_summary = {
  audit_ticks : int;  (** how many times the catalogue ran *)
  audit_violations : int;  (** all violations, both severities *)
  audit_errors : int;  (** [Error]-severity subset *)
  timeline : (float * int) list;
      (** violations found per tick, oldest first — the
          violations-over-time series *)
}

type report = {
  joined : int;
  left : int;
  crashed : int;
  inserted : int;
  lookups_ok : int;
  lookups_failed : int;
  final_peers : int;
  final_items : int;
  invariants : (unit, string) result;  (** checked after the last action *)
  audit : audit_summary option;
}

(** [exec p ~seed ~script] executes the script over a system whose
    observers are already attached.  Lookups before any insert are
    counted as failed.  The scenario's randomness is independent of the
    system's.

    With an auditor on [p] ({!Pipeline.attach}), every settle/advance
    passes through it, so invariant checks fire on cadence mid-churn, and
    the report's [audit] field summarizes what they saw, closing with a
    tick over the drained, repaired end state.  Either way [invariants]
    comes from {!P2p_audit.Checks.final} over the end state.

    When the system's config has [replication_factor > 0] the runner
    installs the replication manager before the first action, so inserts
    fan out, crashes re-replicate, and the [replication_factor] audit
    check is live. *)
val exec : Pipeline.t -> seed:int -> script:action list -> report

val pp_report : Format.formatter -> report -> unit

(** [joins script] is the number of peers [script] joins.  Each takes a
    fresh host and a departed peer's host is not reused, so a script
    runs only on an underlay of at least that many hosts. *)
val joins : action list -> int

(** The [--script] converter: whitespace-separated tokens [join:N:PS],
    [join], [leave], [crash], [crash:F], [repair], [insert:N],
    [lookup:N], [settle], [advance:MS] and [anti-entropy:MS], with
    [N, MS >= 0] and [PS, F] in \[0,1\]. *)
val script_conv : action list Cmdliner.Arg.conv
