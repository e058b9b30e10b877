(** Catalogue of named, individually runnable invariant checks.

    Each check inspects a live {!Hybrid_p2p.World.t} and reports every
    violation it can find (not just the first), plus health gauges.  The
    checks mirror the paper's structural invariants — t-ring
    successor/predecessor symmetry (Section 3.2.1), s-tree shape and the
    degree cap δ (Section 3.2.2), data placement under Schemes A/B — and
    add a load-balance view (items-per-peer spread and a Gini
    coefficient).

    The catalogue is the system's only invariant oracle, with two modes.
    {!run_all} is safe to run {e online}, mid-churn: protocol states
    that are legitimately in flight (an engaged join mutex, a subtree
    walking back to its root after a graceful leave) are recognized and
    skipped rather than misreported.  Genuine damage — a dangling ring
    pointer to a crashed peer, a tree edge over the degree cap, an item
    outside its owner's segment — is still caught the moment it exists.
    {!final} runs the same checks at rest with every in-flight tolerance
    off, so a state that is only legitimate mid-protocol is an error
    there.

    {2 Cost per tick}

    An online tick made with a long-lived {!state} re-verifies only what
    changed since that state's previous tick.  {!Hybrid_p2p.Peer}'s
    setters, and the world's registrations, size-table writes and ring
    merges, journal every peer they change in the world's
    {!Hybrid_p2p.Change_log} of peers ([Peer.log.peers]), and each check
    reads it on top of its
    previous clean run.  With C peers logged since the last tick, S the
    size of an s-network and T t-peers:
    - [ring_symmetry]: O(C log T), the segments beside the logged ring
      members and a running count of busy members;
    - [finger_tables]: O(1) while fingers are stale, else O(C' log T)
      for the C' logged ring members' tables — a table still stale from
      the last refresh point agrees with the oracle by construction;
    - [tree_structure]: O(C S), walking again the trees that reach a
      logged peer now or reached it at the last walk;
    - [membership]: O(C S), re-judging the registered peers below each
      logged peer and moving per-root counts and the size-table
      comparison by the difference;
    - [load_balance], [data_placement]: O(1) while the world interner
      is empty (no store holds an item), else a full scan, O(P) and
      O(P + I) for P peers and I items;
    - [replication_factor]: O(1) while the world interner is empty,
      else a full scan, O(P log T + I);
    - [bloom_coverage]: O(I × tree depth) while summaries are enabled;
    - [latency_sanity]: O(spans changed since the last tick) — minted,
      closed or evicted, plus closed children whose parent is still open
      — with an [O(k log k)] critical-path analysis for each op whose
      [k] closed children changed.

    Each of the first four falls back to its full scan — O(T),
    O(T log T), O(P) and O(P) — whenever the state is fresh or missed a
    tick, its previous run found a violation or
    tolerated an in-flight state it cannot follow (a joiner's pointer, a
    peer in transit, a hand-wired peer outside [\[0, host_bound)]), the
    log overflowed or another state read it since, or the change reaches
    something only the full scan reports.  A fallback is exact, and a
    fast path keeps its running sums equal to a scan's, so every
    snapshot equals a fresh state's full scan byte for byte.
    {!final} always scans in full.

    No check sorts, compares polymorphically or builds a hash table on
    a clean tick, and none allocates a host- or key-indexed array: the
    tallies are arrays kept in the {!state}, grown with the world.  A
    tick of the whole catalogue over a joined 1,000-peer world allocates
    ~65 words in all, on the fast paths and in a full scan alike. *)

(** [Error] marks structural damage; [Warning] marks drift that routing
    survives (e.g. stale server-side accounting). *)
type severity = Warning | Error

val severity_to_string : severity -> string

type violation = {
  check : string;  (** name of the check that found it *)
  severity : severity;
  subject : int option;  (** host of the offending peer, when one exists *)
  detail : string;
}

(** Outcome of one check over one world state. *)
type status = {
  name : string;
  violations : violation list;
  gauges : (string * float) list;  (** health gauges, e.g. load balance *)
}

(** One catalogue run: every selected check at one simulated instant. *)
type snapshot = {
  time : float;
  statuses : status list;
}

type check

val check_name : check -> string

(** One-line description, for [--help]-style listings. *)
val describe : check -> string

(** The full catalogue, in canonical order: [ring_symmetry],
    [finger_tables], [tree_structure], [membership], [data_placement],
    [replication_factor], [bloom_coverage], [load_balance],
    [latency_sanity].
    [bloom_coverage] verifies the edge-summary contract of
    {!Hybrid_p2p.Summaries} — no stored key is invisible to an ancestor
    edge's attenuated Bloom filter (pruned floods can only over-visit,
    never miss); it rebuilds stale summaries first (derived state only)
    and is a no-op while [bloom_bits_per_key = 0].
    [membership] also checks the parent side of every s-tree edge: a
    rooted s-peer's connect point lists it among its children; at rest
    it reports every join or leave begun through [Hybrid] that never
    ended ([World.open_joins], [World.open_leaves]).
    [replication_factor] holds
    every primary item to [min r (Policy.expected_copies)] live replica
    copies; online it stays quiet (gauges only) while copies are in
    flight ([World.replication_pending > 0]) or t-peers are
    mid-triangle, and it is a no-op when replication is off.
    [latency_sanity] verifies the causal-span contract of
    {!P2p_sim.Trace} — every completed child span's interval nests
    inside its parent's, and no op's critical-path attribution
    ({!P2p_obs.Spans}) exceeds its end-to-end latency; it is a no-op
    while tracing is off. *)
val all : check list

val names : string list

val find : string -> check option

(** [select names] resolves a name list against the catalogue.
    [Error unknown] carries the first unknown name. *)
val select : string list -> (check list, string) result

(** What the checks carry from one tick to the next: [latency_sanity]'s
    view of the trace, the other checks' running sums and the bases
    their fast paths build on, and the change-log generation the state
    last read.  A state belongs to one world: pass the same one to every
    {!run_all} over that world, as {!Auditor} does. *)
type state

(** A fresh state: the next run with it is a full scan. *)
val state : unit -> state

(** Peer records the last {!run_all} with this state read in the checks
    that have a fast path ([ring_symmetry], [finger_tables],
    [tree_structure], [membership]) or skip an empty world
    ([data_placement], [load_balance]): a full scan counts every peer it
    reads, a fast path only those it re-verifies.  For cost tests. *)
val reverified : state -> int

(** The checks among those {!reverified} counts that the last
    {!run_all} with this state ran as a full scan, in catalogue order. *)
val full_scans : state -> string list

(** [time_checks st on] — time each check's runs with this state (CPU
    seconds, [Sys.time]) while [on].  Off by default: timing costs two
    clock reads per check and tick. *)
val time_checks : state -> bool -> unit

(** [(name, runs, cpu_seconds)] per check timed so far, in the order the
    checks first ran. *)
val check_times : state -> (string * int * float) list

(** [run check w] executes one check from a fresh state. *)
val run : check -> Hybrid_p2p.World.t -> status

(** [run_all ?state ?checks w] executes the catalogue (or [checks]) and
    stamps the world's current simulated time.  With [state], the run
    reads the world's change log when the state's previous run left it
    readable, and restarts it afterwards; without, it is a full scan from
    a fresh state that leaves the log alone.  The result is the same
    either way. *)
val run_all : ?state:state -> ?checks:check list -> Hybrid_p2p.World.t -> snapshot

(** [final w] executes the whole catalogue at rest: the end-of-run
    invariant check behind every [invariants:] line.  Every in-flight
    tolerance is off — an engaged join/leave mutex or a queued join on
    any t-peer, a ring segment with a busy endpoint, a detached s-peer,
    an unsettled segment boundary, outstanding replica copies and a
    join or leave that never ended are all errors.  Call it once the event queue holds no protocol work
    (periodic timers such as heartbeats may stay armed).  Runs from a
    fresh state. *)
val final : Hybrid_p2p.World.t -> snapshot

(** All violations of a snapshot, in catalogue order. *)
val violations : snapshot -> violation list

(** Only the [Error]-severity subset. *)
val errors : violation list -> violation list

(** [to_result snap] is [Ok ()] when the snapshot carries no
    [Error]-severity violation, otherwise [Error reason] with the first
    one. *)
val to_result : snapshot -> (unit, string) result

val pp_violation : Format.formatter -> violation -> unit
