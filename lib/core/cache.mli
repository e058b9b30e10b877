(** Per-peer soft-state cache of popular data items.

    This implements the caching scheme the paper lists as future work
    (Section 7): when extremely popular data is requested by many peers,
    the hosting peer is overwhelmed; spreading copies across requesters
    and forwarders diffuses that load.  Entries expire after a lifetime
    and the cache evicts the entry closest to expiry when full — cheap,
    and popular items keep getting refreshed anyway.

    Eviction order is maintained by a min-expiry binary heap with lazy
    deletion, so [put] is O(log capacity) rather than a full-table scan
    per eviction. *)

type t

(** [create ~capacity] makes an empty cache holding at most [capacity]
    entries.  @raise Invalid_argument if [capacity < 0]. *)
val create : capacity:int -> t

val size : t -> int
val capacity : t -> int

(** [put t ~now ~lifetime ~key ~value] inserts or refreshes an entry
    expiring at [now + lifetime], evicting the soonest-to-expire entry if
    the cache is full.  A no-op on zero-capacity caches. *)
val put : t -> now:float -> lifetime:float -> key:string -> value:string -> unit

(** [find t ~now ~key] returns the cached value if present and fresh;
    expired entries are dropped on access. *)
val find : t -> now:float -> key:string -> string option

(** [hits t] / [misses t]: lifetime counters for [find] calls on this
    cache (a miss includes expired entries). *)
val hits : t -> int

val misses : t -> int
