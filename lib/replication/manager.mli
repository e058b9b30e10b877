(** The replication manager: the durability subsystem's moving parts.

    One manager serves one world.  {!install} registers the
    [replication/*] metrics and (when [config.replication_factor > 0])
    hooks the manager into the core through {!World.t}'s outward hooks —
    the core never depends on this library:

    - [on_stored] → {e write-path fan-out}: every insert's primary copy
      is copied to the {!Policy.targets} as ordinary overlay messages;
    - [on_peer_failure] → {e failure-driven re-replication} (online
      heartbeat path): detections debounce into one {!heal} a
      [hello_timeout] later;
    - [on_repaired] → {e post-repair heal} (offline path): runs inside
      [Failure.repair] as its final pass.

    The read path needs no hook: [Data_ops] consults each visited peer's
    replica store as a fallback and, in ring mode, probes the owner's
    successors in parallel with the tree resolution.

    {e Anti-entropy}: {!start} arms a periodic timer; each round the
    owner of every ring segment digests its s-network's primary items
    ({!Data_store.segment_digest}) and exchanges the digest with its
    successor replicas, shipping missing copies and pruning stale ones
    on mismatch.  The timer keeps the event queue non-empty, so batch
    drivers must bracket it: [start], run the engine for a while, [stop]
    (the pattern [p2psim]'s [--anti-entropy] and the scenario runner's
    [anti-entropy:MS] action follow). *)

type t

(** [install w] registers metrics and wires the hooks (no-ops when the
    configured factor is 0).  Install once, before the workload. *)
val install : Hybrid_p2p.World.t -> t

(** Configured replication factor (copies beyond the primary). *)
val factor : t -> int

(** [heal t] runs one synchronous durability pass: promotes every item
    whose primary copies all died from a surviving replica into the
    current segment owner's store, re-establishes a replica on each
    current policy target that lacks one, and drops replica copies
    shadowed by a co-located primary.  Idempotent at quiescence.  [op]
    attributes the pass to an existing trace operation (the repair's);
    otherwise it is spanned by its own [Replicate] op. *)
val heal : ?op:int -> t -> unit

(** What the heal passes cost so far: [passes] run, keys [examined]
    across them, [full_censuses] among the passes (the first pass, and
    each after the key journal overflowed), and their CPU seconds
    ([Sys.time]). *)
type heal_stats = { passes : int; examined : int; full_censuses : int; cpu_s : float }

val heal_stats : t -> heal_stats

(** [anti_entropy_round t] runs one digest-exchange round immediately
    (also what the periodic timer fires). *)
val anti_entropy_round : t -> unit

(** [start t] arms the periodic anti-entropy timer (a round every
    5,000 simulated ms); no-op if running or factor 0. *)
val start : t -> unit

(** [stop t] cancels the timer so batch drains can terminate. *)
val stop : t -> unit
