(** [p2psim serve] orchestration: fork [peers] worker processes each
    running one {!Live_node} on [127.0.0.1:(port_base + node)], act as
    the client from the parent, and (in smoke mode) drive an
    insert/lookup workload, compute recall, scrape every node's
    observability snapshot mid-run (merged cluster metrics, merged
    chrome trace, SLO and trace-overhead gates) and scan the workers'
    health dumps for violations.  A health dump holds one span-free
    {!P2p_obs.Scrape} snapshot per line, written every 500 ms (~1.5 kB
    once the latency histograms fill, against ~0.3 kB for the
    hand-written line it replaced); the scan decodes each worker's last
    line with {!P2p_obs.Scrape.of_string}.

    The scrape path is also exposed standalone (see {!aggregator}) for
    [p2psim top] / [p2psim cluster-report], which poll a serving ring
    they did not fork. *)

type outcome = {
  ready_nodes : int;
  inserts_ok : int;
  lookups_found : int;
  lookups_total : int;
  recall : float;  (** found / total lookups, smoke mode *)
  violations : int;  (** summed from final health-dump lines *)
  decode_errors : int;
      (** [wire/decode_errors] summed from final health-dump lines, plus
          one per final line that does not decode *)
  scraped : int;  (** nodes that answered the mid-run scrape *)
  slo_ok : bool;  (** [--slo] specs held on the merged registry *)
  trace_overhead_pct : float;
      (** trace bytes (flags byte and stamped headers) as a percentage
          of what the same traffic would cost without them *)
  exit_code : int;  (** 0 = ring formed, recall 1.0, dumps clean, gates ok *)
}

(** Cluster-wide trace sampling defaults of {!run}: rate and hash seed.
    Every worker must use the same pair, so wire-propagated sampling
    bits agree with local decisions. *)
val default_sample_rate : float

val default_sample_seed : int

(** [run ~peers ~port_base ~smoke ()] forks the ring and returns after
    shutdown (smoke mode) or after SIGINT/SIGTERM (serve mode).
    [dump_dir] (default ["_serve_health"]) receives
    [health-<node>.jsonl] per worker plus, in smoke mode,
    [scrape-<node>.json], [cluster-metrics.json] and
    [cluster-trace.chrome.json].  [sample_rate]/[sample_seed] (default
    {!default_sample_rate} / {!default_sample_seed}) set cluster-wide
    trace sampling; [slo] holds
    [metric:pNN<=value] specs enforced against the merged registry.
    Workers dump their flight recorder on SIGTERM/SIGINT before
    exiting.  [linger] (smoke mode, default 0) keeps the warmed-up ring
    serving that many extra seconds after the scrape, so an external
    {!aggregator} can poll populated histograms;
    [cluster-metrics.json] appearing in [dump_dir] marks the window's
    start. *)
val run :
  ?inserts:int ->
  ?lookups:int ->
  ?ready_timeout:float ->
  ?dump_dir:string ->
  ?sample_rate:float ->
  ?sample_seed:int ->
  ?slo:string list ->
  ?linger:float ->
  peers:int ->
  port_base:int ->
  smoke:bool ->
  unit ->
  outcome

val print_outcome : outcome -> unit

(** [rollup ?report ?metrics_out ?trace_out ~prefix ~slo snapshots] —
    the cluster rollup both [serve --smoke] and [p2psim cluster-report]
    end in.  It merges the snapshots' registries ({!P2p_obs.Scrape.merge}),
    prints {!P2p_obs.Scrape.render_table} and, with [report] (default
    [false]), the merged {!P2p_obs.Report}, writes the merged metrics
    and chrome trace to [metrics_out] / [trace_out] when given, and
    enforces the [slo] specs on the merged registry.  Each file written
    and each SLO verdict prints one line after [prefix].  Returns the
    merged registry and whether every spec held. *)
val rollup :
  ?report:bool ->
  ?metrics_out:string ->
  ?trace_out:string ->
  prefix:string ->
  slo:string list ->
  P2p_obs.Scrape.snapshot list ->
  P2p_obs.Registry.t * bool

(** A scrape-only client for an already-serving ring.  It joins the
    fabric as node index [peers + 1] (the forking orchestrator holds
    [peers]); ring members learn its listen port from the scrape
    request frame itself, so no pre-registration is needed. *)
type aggregator

val aggregator : peers:int -> port_base:int -> unit -> aggregator

(** One scrape round: request a snapshot from every ring node, pump
    until all replied or [timeout] (default 5s) elapsed, return the
    parsed snapshots sorted by node.  [spans] asks nodes to include
    their retained chrome span events. *)
val aggregator_scrape :
  aggregator ->
  ?spans:bool ->
  ?timeout:float ->
  unit ->
  P2p_obs.Scrape.snapshot list

val aggregator_stop : aggregator -> unit
