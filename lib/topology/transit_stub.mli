(** Random transit-stub topology generation.

    Replaces the GT-ITM generator the paper used: the Internet is modelled
    as a small set of *transit domains* (backbone ASes) whose nodes each
    attach several *stub domains* (edge networks).  Latencies are drawn per
    link class — intercontinental transit-transit links are slow, links
    inside a stub domain are fast — matching how GT-ITM-based NS2 studies
    parameterize their topologies.

    The generated graph is always connected. *)

type params = {
  transit_domains : int;      (** number of transit domains *)
  transit_nodes : int;        (** nodes per transit domain *)
  stub_domains_per_node : int;(** stub domains hanging off each transit node *)
  stub_nodes : int;           (** nodes per stub domain *)
  extra_transit_edges : int;  (** extra random intra-transit-domain edges *)
  extra_stub_edges : int;     (** extra random intra-stub-domain edges *)
  transit_transit_latency : float * float; (** (lo, hi) ms, inter-domain *)
  intra_transit_latency : float * float;   (** (lo, hi) ms, intra-domain *)
  transit_stub_latency : float * float;    (** (lo, hi) ms, access links *)
  intra_stub_latency : float * float;      (** (lo, hi) ms, LAN links *)
}

(** Defaults sized to produce the paper's 1,000-node topologies:
    4 transit domains x 5 transit nodes, each transit node carrying
    7 stub domains of 7 nodes -> 20 + 980 = 1,000 nodes. *)
val default_params : params

(** [node_count p] is the total number of nodes [p] will generate. *)
val node_count : params -> int

(** Classification of a node, for latency assignment and experiments that
    place peers by role. *)
type node_class = Transit of int (** transit domain index *) | Stub of int (** owning transit node *)

type t = {
  graph : Graph.t;
  classes : node_class array;
}

(** [generate ~rng params] builds a random transit-stub topology and
    marks its [Transit _] nodes on the graph ({!Graph.mark_transit}), so
    [Routing.create t.graph] is the hierarchical router: every stub
    domain it builds has exactly one access link, the shape that router
    requires.
    @raise Invalid_argument if any size parameter is non-positive. *)
val generate : rng:P2p_sim.Rng.t -> params -> t

(** [transit_nodes t] lists node indices that are transit nodes. *)
val transit_nodes : t -> int list

(** [stub_nodes t] lists node indices that are stub nodes. *)
val stub_nodes : t -> int list
