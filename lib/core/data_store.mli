(** Per-peer storage of (key, value) data items.

    Every peer keeps the items it is responsible for in a local database.
    The store caches each key's hashed [d_id] because load transfer
    (Section 3.2.1) repeatedly partitions the database by ID segment.

    Internally the store is flat: interned key/value ids and routing ids
    live in parallel int arrays with open addressing, and an empty store
    holds no arrays at all.  Strings appear only at the API boundary.
    Stores created with a shared {!Intern.t} (the world's interner) keep
    exactly one heap copy of each distinct key and value across every
    peer, which is what makes million-peer populations fit in memory. *)

open P2p_hashspace

type t

(** [create ~interner ?log ?tag ()] — an empty store.  [interner] maps
    keys and values to dense ids; a peer's stores take the world's
    interner ({!World.register} rejects any other), so all peers share
    string storage and one id names one key in every store.  Every
    insert, removal, segment take and clear journals each key id it
    writes in [log] (default {!no_world}: nowhere), as one {!entry}
    under the store's [tag]. *)
val create : interner:Intern.t -> ?log:int Change_log.t -> ?tag:int -> unit -> t

(** The journal of stores that belong to no world (a hand-wired
    negative host, a bare test store): {!Change_log.inert}. *)
val no_world : int Change_log.t

(** The interner this store resolves ids against. *)
val interner : t -> Intern.t

(** The store's holder tag ({!Peer.make} assigns them; [0] by default). *)
val tag : t -> int

(** {1 Journal entries}

    A write of key id [kid] by the store tagged [tag] is journaled as one
    int, [entry ~kid ~tag], which {!entry_kid} and {!entry_tag} unpack;
    sorted, entries order by key, then tag.  [~tag:(-1)] names no store. *)

val entry : kid:int -> tag:int -> int
val entry_kid : int -> int
val entry_tag : int -> int

(** Number of items held. *)
val size : t -> int

(** [insert t ~key ~value] adds or replaces an item, routed by
    [Key_hash.of_string key]. *)
val insert : t -> key:string -> value:string -> unit

(** [insert_routed t ~route_id ~key ~value] adds an item routed and
    load-transferred by an explicit ID — interest-based s-networks route a
    whole category under one ID (Section 5.3). *)
val insert_routed : t -> route_id:Id_space.id -> key:string -> value:string -> unit

(** [find t ~key] is the stored value, if any. *)
val find : t -> key:string -> string option

(** [find_id t kid] is {!find} for the key whose id in [interner t] is
    [kid]: the probe without hashing the key string, for a caller that
    probes many stores sharing one interner with the same key. *)
val find_id : t -> int -> string option

(** [value_id t kid] is the id in [interner t] of the value stored under
    key id [kid], or [-1] when absent. *)
val value_id : t -> int -> int

(** [route_of_id t kid] is the routing ID stored under key id [kid], or
    [-1] when absent. *)
val route_of_id : t -> int -> Id_space.id

(** [remove t ~key] deletes the item if present. *)
val remove : t -> key:string -> unit

(** [mem t ~key] tests presence. *)
val mem : t -> key:string -> bool

(** [mem_id t kid] is {!mem} for the key whose id in [interner t] is
    [kid], probed without hashing the key string. *)
val mem_id : t -> int -> bool

(** [take_segment t ~left ~right] removes and returns every item whose
    routing ID lies in the ring segment [(left, right]] — the
    load-transfer primitive: when a new t-peer with ID [right] joins after
    predecessor [left], these are exactly the items it must receive.
    Returns [(key, value, route_id)] triples. *)
val take_segment :
  t -> left:Id_space.id -> right:Id_space.id -> (string * string * Id_space.id) list

(** [segment_items t ~left ~right] is {!take_segment} without the
    removal: the items whose routing ID lies in [(left, right]], left in
    place.  The anti-entropy exchange reads segments non-destructively. *)
val segment_items :
  t -> left:Id_space.id -> right:Id_space.id -> (string * string * Id_space.id) list

(** [digest_items items] is an order-independent digest of a
    [(key, value, route_id)] set: two item lists digest equal iff they
    hold the same set (up to hash collisions).  Exposed so both sides of
    an anti-entropy exchange share one definition. *)
val digest_items : (string * string * Id_space.id) list -> int

(** [segment_digest t ~left ~right] is [digest_items (segment_items t
    ~left ~right)] — what replica peers compare per ring segment before
    deciding whether a sync is needed. *)
val segment_digest : t -> left:Id_space.id -> right:Id_space.id -> int

(** [take_all t] removes and returns everything — the paper's [loaddump]
    when a peer leaves gracefully. *)
val take_all : t -> (string * string * Id_space.id) list

(** [iter t f] applies [f ~key ~value ~route_id] to each item. *)
val iter : t -> (key:string -> value:string -> route_id:Id_space.id -> unit) -> unit

(** [iter_ids t f] applies [f] to the id in [interner t] of each stored
    key, in {!iter}'s order: a walk that tallies keys in flat arrays
    without materializing a string per item. *)
val iter_ids : t -> (int -> unit) -> unit

(** [iter_id_items t f] applies [f kid vid route_id] to each item, with
    its key and value ids in [interner t], in {!iter}'s order. *)
val iter_id_items : t -> (int -> int -> Id_space.id -> unit) -> unit

(** [keys t] lists stored keys in unspecified order. *)
val keys : t -> string list

(** [note_held t] journals every key [t] holds, as if each were written
    now: how a copy's holder changes with no store write (the store's
    peer entering or leaving a world's membership) still reaches the
    journal's reader.  One branch while the journal is off. *)
val note_held : t -> unit

val clear : t -> unit
