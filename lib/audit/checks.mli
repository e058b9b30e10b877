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

    With T t-peers, P registered peers and I stored items (primaries and
    replica copies), one tick costs:
    - [ring_symmetry]: O(T); the set of registered hosts that tells an
      in-flight joiner from damage is built only on a tick that finds a
      pointer mismatch;
    - [finger_tables]: O(T log T): one oracle search per finger, a
      binary search over the ring's flat p_id array;
    - [tree_structure], [membership]: O(P), over flat host-indexed
      arrays;
    - [load_balance]: O(P) while every store is empty, else O(P + M)
      for a largest store of M items: the Gini coefficient is read off
      per-size counts, with no sort;
    - [data_placement]: O(P + I), reading a key's text only for a
      reported item;
    - [replication_factor]: O(P log T + I), tallying copies per
      interned key id in flat arrays; O(1) while the world interner is
      empty (no store has held an item), and the scan for a busy t-peer
      runs only when an under-replicated item is to be reported;
    - [bloom_coverage]: O(I × tree depth) while summaries are enabled;
    - [latency_sanity]: O(spans changed since the last tick) — minted,
      closed or evicted, plus closed children whose parent is still open
      — with an [O(k log k)] critical-path analysis for each op whose
      [k] closed children changed.  This needs a {!state} carried from
      tick to tick; a fresh state has seen nothing, so its first tick is
      the full scan over every retained span, and produces exactly what
      any later tick of a long-lived state produces at the same
      instant.

    No check sorts, compares polymorphically or builds a hash table on
    a clean tick, and none allocates a host- or key-indexed array: the
    tallies of [tree_structure], [membership] and [replication_factor]
    are scratch arrays kept in the {!state}, stamped per tick rather
    than cleared.  A tick of the whole catalogue over a joined
    1,000-peer world allocates ~60 words in all; with 3,000 items and
    their replicas stored, ~1,570, most of it [data_placement]'s
    per-holder closures. *)

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
    rooted s-peer's connect point lists it among its children.
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
    view of the trace, and the scratch arrays the other checks tally
    into, which carry no finding across ticks.  A state belongs to one
    world: pass the same one to every {!run_all} over that world, as
    {!Auditor} does. *)
type state

(** A fresh state: the next run with it is a full scan. *)
val state : unit -> state

(** [run check w] executes one check from a fresh state. *)
val run : check -> Hybrid_p2p.World.t -> status

(** [run_all ?state ?checks w] executes the catalogue (or [checks]) and
    stamps the world's current simulated time.  [state] defaults to a
    fresh one; the result is the same either way. *)
val run_all : ?state:state -> ?checks:check list -> Hybrid_p2p.World.t -> snapshot

(** [final w] executes the whole catalogue at rest: the end-of-run
    invariant check behind every [invariants:] line.  Every in-flight
    tolerance is off — an engaged join/leave mutex or a queued join on
    any t-peer, a ring segment with a busy endpoint, a detached s-peer,
    an unsettled segment boundary and outstanding replica copies are
    all errors.  Call it once the event queue holds no protocol work
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
