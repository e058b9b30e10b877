(** System configuration for the hybrid peer-to-peer system.

    The paper's parameters — the degree constraint [δ] on s-network
    trees, the flood TTL, the data placement scheme (Section 3.4), the
    enhancement switches of Section 5 and the failure-detection timer
    periods of Section 3.2.2 — plus the t-network's data-routing mode and
    the switches of this implementation's own accelerators (result cache,
    Bloom summaries) and durability layer (replication factor).  Every
    field is set by some command, bench or example; values no caller
    varies are constants beside their one reader. *)

(** Where an item routed through the t-network is finally stored
    (Section 3.4). *)
type placement =
  | Store_at_tpeer
      (** basic scheme: the owning t-peer keeps everything — imbalanced *)
  | Spread_to_neighbors
      (** improved scheme: random spreading walk over directly connected
          s-peers, balancing the load *)

(** How the s-network answers queries (Sections 3.1, 3.4 and 5.5). *)
type s_style =
  | Flooding_tree  (** Gnutella-style TTL flood over the tree *)
  | Random_walks of int
      (** that many independent random walks of TTL steps each — the
          paper's lower-bandwidth alternative to flooding *)
  | Bittorrent_tracker
      (** the t-peer indexes every item in its s-network and answers
          lookups directly; no flooding *)

type t = {
  delta : int;  (** degree constraint [δ] on s-network trees (>= 2) *)
  default_ttl : int;  (** flood TTL for s-network lookups *)
  placement : placement;
  s_style : s_style;
  use_fingers_for_data : bool;
      (** route inserts and lookups across the ring by finger tables,
          O(log T) hops over T t-peers, as t-peer joins always are (the
          paper's Fig. 3a analysis assumes it).  [true] by default.
          [false] forwards data one successor at a time, ~T/2 hops per
          operation: the paper's simulation routes "along the ring"
          (Table 2's connum at [p_s = 0] is ~N/2 per lookup), and
          {!paper} restores it *)
  hello_period : float;  (** ms between HELLO heartbeats *)
  hello_timeout : float;  (** ms of silence before a neighbour is presumed dead *)
  lookup_timeout : float;  (** ms before a pending lookup is declared failed *)
  heartbeats : bool;
      (** drive HELLO/ack failure detection online.  Disable for
          quiescence-driven batch experiments and repair crashes with
          {!Hybrid.repair} instead *)
  bypass_enabled : bool;  (** maintain bypass links (Section 5.4) *)
  bypass_lifetime : float;  (** ms a bypass link survives without traffic *)
  link_usage_aware : bool;
      (** connect-point selection checks link usage (Section 5.1): a
          connect point accepts a child only while its tree degree, that
          child included, stays within its link capacity *)
  transmission_ms : float;
      (** per-message transmission cost at unit link capacity; a message
          between two peers pays [transmission_ms / min(cap_src, cap_dst)].
          [0.] (the default) disables capacity effects; the link
          heterogeneity experiments (Section 5.1 / Fig. 6a) set it
          positive. *)
  reflood_attempts : int;
      (** on lookup timeout, reissue the query with doubled TTL (and a
          fresh timer) up to this many times (Section 3.4: "increase the
          TTL value and the expiration duration of the timer and reflood").
          [0] (default) fails on the first timeout. *)
  cache_capacity : int;
      (** per-peer soft cache of popular items (the paper's Section-7
          future work); [0] (default) disables caching *)
  cache_lifetime : float;  (** ms a cached copy stays valid *)
  bloom_bits_per_key : int;
      (** size budget of the attenuated Bloom summaries kept per s-tree
          edge, in filter bits per summarized key.  When positive,
          {!S_network.flood} prunes branches whose edge summary misses the
          looked-up key ({!Summaries}); [0] (default) disables the
          summaries and every flood visits the whole in-range tree. *)
  replication_factor : int;
      (** number of redundant copies of each item kept beyond the
          primary ([r]); [0] (default) reproduces the paper's
          no-durability behaviour where a crashed peer's items are lost.
          Takes effect once {!P2p_replication.Manager.install} hooks the
          subsystem into the world (the scenario runner and [p2psim] do
          this automatically when [r > 0]).  The copies go to the next
          [r] live t-peers clockwise from the owner
          ({!P2p_replication.Policy}). *)
}

(** The defaults: [δ = 3] (the simulations' setting), [default_ttl = 4],
    spread placement, flooding s-networks, finger-routed joins and data,
    heartbeats off, bypass off. *)
val default : t

(** The paper's simulation: {!default} with data forwarded one ring
    successor at a time ([use_fingers_for_data = false]).  Table 2 and
    the figure benches build on it. *)
val paper : t

(** [validate t] returns [Error reason] if a field is out of range
    (e.g. [delta < 2], negative timers). *)
val validate : t -> (unit, string) result
