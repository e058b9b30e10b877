(** Undirected weighted graphs representing the physical network.

    Nodes are dense integers [0 .. node_count - 1]; edge weights are
    latencies in milliseconds.  The graph is the *underlay*: overlay links
    of the P2P system map onto shortest physical paths through it.  Each
    node is a transit (backbone) node or a stub node, as GT-ITM labels
    its output; {!Routing.create} reads the labels. *)

type t

(** An undirected edge; [u < v] is guaranteed by construction. *)
type edge = { u : int; v : int; latency : float }

(** [create n] is an edgeless graph of [n] nodes.
    @raise Invalid_argument if [n < 0]. *)
val create : int -> t

val node_count : t -> int

val edge_count : t -> int

(** [add_edge t u v ~latency] inserts an undirected edge.  Inserting an
    existing edge or a self-loop raises [Invalid_argument]; latency must be
    positive. *)
val add_edge : t -> int -> int -> latency:float -> unit

(** [mark_transit t u] labels node [u] a transit node; every node starts
    as a stub node.  Marking a node twice is harmless.
    @raise Invalid_argument when [u] is out of range. *)
val mark_transit : t -> int -> unit

(** [is_transit t u] is [true] iff [u] was marked by {!mark_transit}.
    @raise Invalid_argument when [u] is out of range. *)
val is_transit : t -> int -> bool

(** [has_edge t u v] tests adjacency. *)
val has_edge : t -> int -> int -> bool

(** [latency t u v] is the weight of edge [u -- v].
    @raise Not_found if absent. *)
val latency : t -> int -> int -> float

(** [neighbors t u] lists [(v, latency)] for every edge at [u]. *)
val neighbors : t -> int -> (int * float) list

(** [degree t u] is the number of edges at [u]. *)
val degree : t -> int -> int

(** [edges t] lists every edge once. *)
val edges : t -> edge list

(** [is_connected t] is [true] iff every node is reachable from node 0
    (or the graph is empty). *)
val is_connected : t -> bool

(** [iter_neighbors t u f] applies [f v latency] to each neighbour without
    allocating. *)
val iter_neighbors : t -> int -> (int -> float -> unit) -> unit
