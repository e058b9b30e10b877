(** Shortest-path routing over the physical graph.

    Overlay links are logical: a message sent over the overlay edge
    [u -> v] traverses the latency-shortest physical path from [u] to [v].
    Three backends compute those paths:

    - {!link_state} — the runtime router: precomputed tables exploiting the transit-stub
      hierarchy (each stub domain reaches the backbone through exactly one
      access link, so every inter-domain path factors through the
      gateways).  All-pairs state is kept only inside each small domain
      and across the transit backbone — O(Σ sᵢ² + g²) memory, O(1)
      [distance]/[hop_count] — so the real graph stays affordable on the
      hot message path at 10k+ nodes.  {!Transit_stub.routing} builds
      it for a generated topology.
    - {!create} — the reference: exact per-source Dijkstra on any graph,
      each source's tree cached once computed.  Tests check the other
      backends against it.
    - {!synthetic} — a fake uniform-latency clique for overlay-only
      scalability studies. *)

type t

(** [create graph] prepares the reference Dijkstra router; no paths are
    computed yet.  Each source's shortest-path tree is cached once
    computed, so memory grows to O(n²) once every node has sent. *)
val create : Graph.t -> t

(** [link_state graph ~is_transit] precomputes hierarchical routing
    tables over a transit-stub graph; [is_transit u] classifies node [u].
    Stub domains are the connected components of the stub-only subgraph;
    each must touch the backbone through at most one stub-to-transit edge
    (its access link) — a domain with none is simply unreachable from the
    outside.  Construction runs all-pairs shortest paths inside every
    domain and over the backbone; queries are table lookups.
    @raise Invalid_argument when some stub domain has several access
    links (the graph is not transit-stub shaped). *)
val link_state : Graph.t -> is_transit:(int -> bool) -> t

(** [synthetic ~nodes ~latency] is a router over [nodes] hosts in which
    every distinct pair is directly connected at a uniform [latency] (ms)
    — one physical hop, no path computation, O(1) memory.  This is the
    underlay for overlay-scalability runs (the million-peer sweep in
    [bench/scale.ml]) where per-source shortest-path state is
    unaffordable and physical path diversity is not under study.
    {!graph} returns an edgeless placeholder of [nodes] nodes.
    @raise Invalid_argument when [nodes < 0] or [latency <= 0]. *)
val synthetic : nodes:int -> latency:float -> t

(** [distance t u v] is the latency of the shortest path.  [infinity] when
    unreachable. *)
val distance : t -> int -> int -> float

(** [path t u v] is the node sequence [u; ...; v] of a shortest path.
    @raise Not_found when unreachable. *)
val path : t -> int -> int -> int list

(** [hop_count t u v] is the number of physical links on a shortest path;
    0 when [u = v].  Never materializes the path: the Dijkstra backend
    walks the predecessor chain, the link-state backend reads hop tables.
    @raise Not_found when unreachable. *)
val hop_count : t -> int -> int -> int

(** [restricted_all_pairs graph ~members ~index_of ~in_set] is the
    all-pairs table set the link-state backend keeps per stub domain and
    for the backbone: shortest paths over the subgraph induced by
    [members] ([in_set v] tells membership, [index_of v] the position of
    member [v] in [members]).  It returns [(dist, next, hops)], each
    [s*s] row-major in member positions: the distance, the first hop as
    a global node id ([-1] when unreachable or on the diagonal) and the
    hop count.  Among equal-length paths the one whose nodes settle
    first — smallest distance, then lowest position — wins, so the
    tables are a pure function of the graph and the member order.
    Exposed for the test that holds it to a reference implementation. *)
val restricted_all_pairs :
  Graph.t ->
  members:int array ->
  index_of:(int -> int) ->
  in_set:(int -> bool) ->
  float array * int array * int array

(** [graph t] is the underlying graph. *)
val graph : t -> Graph.t
