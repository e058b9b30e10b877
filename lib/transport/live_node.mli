(** One live ring node — the protocol logic a [p2psim serve] worker
    process runs over {!Live_transport}.

    Tracker-style bootstrap (node 0 collects announces and broadcasts
    the peer list), Chord-style successor-ring routing for inserts and
    lookups, client request relay, per-node self-audit (stored keys must
    hash into the node's own arc) and periodic health dumps.

    Observability spans processes: sampled operations stamp a wire-v2
    trace header on every frame so each hop's span rebinds under the
    sender's, completion latency feeds mergeable
    [latency/<kind>_total_ms] log histograms for 100% of ops, and a
    [Scrape_request] frame is answered with a versioned
    {!P2p_obs.Scrape} snapshot of the node's registry and health.

    That snapshot is the node's only health record.  The registry is
    the transport's ({!Live_transport.registry}): [wire/*] counters,
    [ring/served], [ring/hops_served] and [ring/violations] counters,
    and [ring/store], [ring/pending] and [timer/cancel_late] gauges set
    when a snapshot is taken.  Each line of [health-<node>.jsonl] is
    [Scrape.to_string] of a span-free snapshot, appended at start, every
    500 ms and at stop; {!P2p_obs.Scrape.of_string} decodes any line,
    and [p2psim report] renders one.  On the 8-process smoke a line is
    ~0.9 kB before the first operation and ~1.5 kB once the latency
    histograms fill; the hand-written line it replaced was ~0.3 kB. *)

type t

(** [create ~node ~n ~port_base ()] builds node [node] of an [n]-node
    ring listening on [port_base + node].  Node indices [0..n-1] are
    ring members; index [n] is reserved for the orchestrator/client.
    [dump_dir], when given, receives [health-<node>.jsonl] (and any
    flight-recorder dumps).  [epoch] (wall-clock seconds, default: time
    of creation) anchors every trace timestamp — the orchestrator
    passes one epoch to all workers so cross-process span times align.
    [sample_rate]/[sample_seed] configure head-based op sampling and
    must match cluster-wide for the wire sampling bit to agree with
    local decisions.  The span/event rings hold 8,192 entries. *)
val create :
  ?dump_dir:string ->
  ?epoch:float ->
  ?sample_rate:float ->
  ?sample_seed:int ->
  node:int ->
  n:int ->
  port_base:int ->
  unit ->
  t

(** [true] once the tracker's peer list arrived and the ring position
    (successor/predecessor) is known. *)
val ready : t -> bool

(** One event-loop turn; see {!Live_transport.step}. *)
val step : ?timeout:float -> t -> bool

val transport : t -> Live_transport.t

(** Audit violations counted so far (misplaced keys, ring shape,
    hop-count overruns). *)
val violations : t -> int

(** The node's trace (per-process span-id range, cluster-shared
    sampling). *)
val trace : t -> P2p_sim.Trace.t

(** The node's metrics registry, which is its transport's (latency log
    histograms, wire and ring counters, ring and timer gauges). *)
val registry : t -> P2p_obs.Registry.t

(** The snapshot a [Scrape_request] answers with; [spans] includes the
    retained chrome span events. *)
val scrape_snapshot : t -> spans:bool -> P2p_obs.Scrape.snapshot

(** [request_flight_dump t ~reason] — flag a flight-recorder dump to be
    taken from the run loop.  Async-signal-safe (one field write); this
    is what SIGTERM/SIGINT handlers call.  First reason wins. *)
val request_flight_dump : t -> reason:string -> unit

(** Blocking loop: step until a [Shutdown] frame arrives — or a
    requested flight dump is honoured — then drain and {!stop}. *)
val run : t -> unit

(** Final audit + health line, close dump and sockets. *)
val stop : t -> unit
