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
      hot message path at 10k+ nodes.  Each of those member sets is one
      {!block}: a float distance plus a two-byte first hop and a
      two-byte hop count per pair, 12 bytes in all.
      {!Transit_stub.routing} builds it for a generated topology.
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
    domain and over the backbone ({!restricted_all_pairs}); queries are
    table lookups.
    @raise Invalid_argument when some stub domain has several access
    links (the graph is not transit-stub shaped), or when a stub domain
    or the backbone has more than 65,534 nodes (two-byte entries; the
    CLI's topologies keep domains to a few hundred nodes). *)
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

(** [reachable_hops t u v] is [hop_count t u v] for a pair the caller
    already knows to be reachable ([distance t u v < infinity]), read
    without checking reachability again: on the link-state backend one
    walk of the tables instead of two.  Unspecified when [v] cannot be
    reached from [u]. *)
val reachable_hops : t -> int -> int -> int

(** One member set's all-pairs tables, s*s entries row-major in member
    positions: the distance as a float, the first hop as a member
    position and the hop count, both unsigned 16-bit in [Bytes] (two
    bytes each, so a set holds at most 65,534 members: positions and
    hop counts stay below the 0xFFFF that marks "no first hop"). *)
type block

(** [restricted_all_pairs graph ~members ~index_of ~in_set] is the
    all-pairs block the link-state backend keeps per stub domain and
    for the backbone: shortest paths over the subgraph induced by
    [members] ([in_set v] tells membership, [index_of v] the position of
    member [v] in [members]).  The Dijkstra pass of each source writes
    its row of the block directly.  Among equal-length paths the one
    whose nodes settle first — smallest distance, then lowest position
    — wins, so the tables are a pure function of the graph and the
    member order.  Exposed, with the decoders below, for the tests that
    hold it to a reference implementation.
    @raise Invalid_argument when [members] has more than 65,534 nodes. *)
val restricted_all_pairs :
  Graph.t -> members:int array -> index_of:(int -> int) -> in_set:(int -> bool) -> block

(** [block_dist b i j] is the distance from member position [i] to [j]
    ([infinity] when unreachable). *)
val block_dist : block -> int -> int -> float

(** [block_next b i j] is the first hop from position [i] toward [j], as
    a global node id; [-1] when unreachable or [i = j]. *)
val block_next : block -> int -> int -> int

(** [block_hops b i j] is the hop count from position [i] to [j]; 0 when
    unreachable or [i = j]. *)
val block_hops : block -> int -> int -> int

(** [graph t] is the underlying graph. *)
val graph : t -> Graph.t
