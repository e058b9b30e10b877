(** Chord-style structured overlay — the paper's structured baseline.

    When the hybrid system's parameter [p_s] is 0 it "degenerates to a
    ring-based structured peer-to-peer network"; this library is that
    endpoint as a standalone overlay: a ring ordered by peer ID with
    successor/predecessor pointers, finger tables for O(log N) routing, a
    successor list for fault tolerance, key storage at the owning node, and
    a stabilization pass.

    The overlay is a pure algorithmic structure: routing operations return
    the *path* of nodes visited, and callers map paths to simulated
    latencies through whatever underlay they use.  This keeps the baseline
    reusable both for direct unit testing and inside event-driven
    experiments. *)

open P2p_hashspace

type t

type node

(** {1 Construction and membership} *)

(** [create ()] makes an empty ring.  [successor_list_length] (default 8,
    >= 1) sizes the per-node successor list used to survive crashed
    successors until the next {!stabilize}.  When [trace] is given, every
    routed operation ({!join}, {!store}, {!lookup}) is replayed into it as a
    [Custom] op with one "ring_hop" span per path edge, timed on an
    internal logical clock (1 ms per hop) — the overlay itself stays
    synchronous.
    @raise Invalid_argument when [successor_list_length < 1]. *)
val create : ?trace:P2p_sim.Trace.t -> ?successor_list_length:int -> unit -> t

(** Configured successor-list length of this ring. *)
val successor_list_length : t -> int

(** Number of live nodes. *)
val node_count : t -> int

(** All live nodes, in arbitrary order. *)
val nodes : t -> node list

(** [join ?introducer t ~host ~p_id] inserts a node via [introducer]
    (default: the oldest live node).  The join request is routed from the
    introducer (ring order walk accelerated by fingers), exactly
    as a real join would travel; the returned path excludes the new node.
    Keys owned by the new node migrate from its successor.
    @raise Invalid_argument if [p_id] is already taken or invalid. *)
val join : ?introducer:node -> t -> host:int -> p_id:Id_space.id -> node * node list

(** [leave t node] removes a node gracefully: its keys are transferred to
    its successor and its neighbours' pointers are repaired.
    @raise Invalid_argument if the node already left. *)
val leave : t -> node -> unit

(** [crash t node] removes a node abruptly: its keys are LOST and no
    pointers are repaired; other nodes discover the failure lazily through
    their successor lists during {!stabilize}. *)
val crash : t -> node -> unit

(** {1 Node accessors} *)

val host : node -> int
val p_id : node -> Id_space.id
val successor : node -> node
val predecessor : node -> node option
val alive : node -> bool

(** The finger table: entry [k] targets the first node at distance
    [>= 2^k]. *)
val fingers : node -> node option array

(** {1 Routing and data} *)

(** [find_successor t ~from id] routes from [from] to the node owning [id],
    returning [(owner, path)] where [path] starts at [from] and ends at the
    owner. *)
val find_successor : t -> from:node -> Id_space.id -> node * node list

(** [store t ~from ~key ~value] places the item at the owner of
    [Key_hash.of_string key] and returns the routing path. *)
val store : t -> from:node -> key:string -> value:string -> node list

(** [lookup t ~from ~key] routes to the owner and returns
    [(value_if_present, path)]. *)
val lookup : t -> from:node -> key:string -> string option * node list

(** Number of items stored at [node]. *)
val stored_items : node -> int

(** {1 Maintenance} *)

(** [stabilize t] runs one round of the stabilization protocol on every
    live node: successor repair via successor lists, predecessor
    rectification, and finger refresh.  Call repeatedly after crashes. *)
val stabilize : t -> unit

(** [check_invariants t] verifies ring order, pointer symmetry and finger
    correctness; returns [Error reason] on the first violation. *)
val check_invariants : t -> (unit, string) result
