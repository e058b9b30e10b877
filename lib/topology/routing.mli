(** Shortest-path routing over the physical graph.

    Overlay links are logical: a message sent over the overlay edge
    [u -> v] traverses the latency-shortest physical path from [u] to [v].
    One router computes those paths for every run: the link-state router
    {!create} builds.  It exploits the transit-stub hierarchy the graph's
    transit marks ({!Graph.mark_transit}) describe: each stub domain
    reaches the backbone through exactly one access link, so every
    inter-domain path factors through the gateways.  The transit
    backbone keeps an all-pairs {!block}.  A stub domain keeps its
    adjacency and a few shortest-path trees: its gateway's, from one
    solve that also gives every host's leg to the gateway (run by the
    first of the two to be asked), and, from its first in-domain pair,
    one from each endpoint of an edge off the gateway's tree (at most
    four in a generated domain, a spanning chain plus two chords).
    Every simple path in the domain is the gateway tree's path or passes
    through such an endpoint, so a pair is read off the trees, folded
    from its source, whenever no other path comes within a rounding
    margin of the best; the answer is then its source's Dijkstra's, bit
    for bit.  A pair the trees cannot vouch for (ties, as in unit-weight
    graphs) and every pair of a domain with more than six endpoints is
    solved by that Dijkstra, stopped when the target settles and resumed
    when the next such pair has the same source.  Either way the answer
    is memoized, and each host's leg is kept in per-host arrays.  Memory
    follows the pairs a run asks for, not the O(Σ sᵢ²) of all-pairs
    tables, so the real graph stays affordable at 100k nodes.  A
    router is therefore mutable: it belongs to one world, and no two
    OCaml [Domain]s may query it at once.  A graph with no transit marks
    routes flat: each connected component is one stub domain with no
    access link.

    The tests hold the router to a whole-graph Dijkstra that lives beside
    them, not in this library. *)

type t

(** [create graph] builds the link-state router over [graph], whose
    backbone is the nodes {!Graph.mark_transit} marked.  Stub domains
    are the connected components of the stub-only subgraph; each must
    touch the backbone through at most one stub-to-transit edge (its
    access link) — a domain with none is simply unreachable from the
    outside, and on a graph with no marks every connected component is
    such a domain.  Construction runs all-pairs shortest paths over the
    backbone only ({!restricted_all_pairs}) and flattens each stub
    domain's adjacency.  Queries inside a domain are answered on first
    use, from the domain's trees or by a solve, and then read a memo the
    router owns: the answers are those of the domain's all-pairs block,
    bit for bit, whatever order they are asked in, but each first answer
    mutates the router, so no two OCaml [Domain]s may query it at
    once.  The marks are read once, here.
    @raise Invalid_argument when some stub domain has several access
    links (the graph is not transit-stub shaped), or when the backbone
    has more than 65,534 nodes (its block's two-byte entries; the CLI's
    topologies have 9). *)
val create : Graph.t -> t

(** The stub-domain decomposition a link-state router is built on: per
    node its stub domain ([-1] for a transit node); per domain, numbered
    in the order of their lowest nodes, its members in ascending node
    order, its gateway, the transit node of its access link and that
    link's latency ([-1], [-1] and [infinity] for a domain with no
    access link). *)
type decomposition = {
  domain_of : int array;
  members : int array array;
  gateway : int array;
  attach : int array;
  access : float array;
}

(** [decomposition t] is a copy of [t]'s decomposition, for the tests
    that hold {!create}'s construction to a reference. *)
val decomposition : t -> decomposition

(** [distance t u v] is the latency of the shortest path.  [infinity] when
    unreachable. *)
val distance : t -> int -> int -> float

(** [path t u v] is the node sequence [u; ...; v] of a shortest path,
    the chain of {!next_hop}s.  The stretch inside the destination's
    stub domain is read in one go, off a tree walk or off one solve, not
    a pair answer per hop.
    @raise Not_found when unreachable. *)
val path : t -> int -> int -> int list

(** [next_hop t u v] is the node after [u] on [path t u v], read without
    building the path; [u] when [u = v].
    @raise Not_found when unreachable. *)
val next_hop : t -> int -> int -> int

(** [hop_count t u v] is the number of physical links on a shortest path;
    0 when [u = v].  Never materializes the path: it composes stored hop
    counts.
    @raise Not_found when unreachable. *)
val hop_count : t -> int -> int -> int

(** [reachable_hops t u v] is [hop_count t u v] for a pair the caller
    already knows to be reachable ([distance t u v < infinity]), read
    without checking reachability again: one composition of stored
    answers instead of two.  Unspecified when [v]
    cannot be reached from [u]. *)
val reachable_hops : t -> int -> int -> int

(** One member set's all-pairs tables, s*s entries row-major in member
    positions: the distance as a float, the first hop as a member
    position and the hop count, both unsigned 16-bit in [Bytes] (two
    bytes each, so a set holds at most 65,534 members: positions and
    hop counts stay below the 0xFFFF that marks "no first hop"). *)
type block

(** [restricted_all_pairs graph ~members ~index_of ~in_set] is the
    all-pairs block of the subgraph induced by [members] ([in_set v]
    tells membership, [index_of v] the position of member [v] in
    [members]): the router's table for the transit backbone, and the
    reference its on-demand stub-domain answers are tested against.  Each source runs the same settle loop those answers
    stop early.  Among equal-length paths the one whose nodes settle
    first — smallest distance, then lowest position — wins, so the
    tables are a pure function of the graph and the member order (stub
    domains number their members in ascending node order).  Exposed,
    with the decoders below, for the tests that hold it to a reference
    implementation.
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

(** [solves t] counts the shortest-path solves [t] has run since
    {!create} built it: one per domain from its gateway,
    for its legs and its gateway's tree alike, whichever asks first; one
    per further tree a domain plants on its first in-domain pair, one
    per root; the fallbacks, one per in-domain pair the trees could not
    vouch for (every pair, in a domain with too many roots), unless it
    resumes the solve of the fallback before it from the same source;
    and one per host whose leg the gateway's tree could not give.  A
    generated domain answered from its trees alone costs at most five. *)
val solves : t -> int
