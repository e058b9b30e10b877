(** Census ids for the data keys held across a world's stores.

    A whole-world pass over the stores (the replication heal, the audit's
    replication-factor check) tallies keys in flat arrays indexed by
    these ids instead of string-keyed tables.  A key's id is its id in
    the world interner; a store built on another interner (a peer made by
    hand) is translated by name, and a key the world never interned gets
    an id past the world's from a census-local interner.  Ids are valid
    for the census that issued them only. *)

type t

(** [create w] sizes a census over the stores and replica stores of every
    registered peer of [w] as they are now. *)
val create : World.t -> t

(** Ids run over [\[0, size t)]: the length for per-key arrays. *)
val size : t -> int

(** [iter t store f] applies [f] to the id of each key in [store], in
    {!Data_store.iter}'s order, allocating nothing for a store on the
    world interner. *)
val iter : t -> Data_store.t -> (int -> unit) -> unit

(** [iter_items t store f] is {!iter} with each item's value and routing
    id. *)
val iter_items :
  t ->
  Data_store.t ->
  (int -> value:string -> route_id:P2p_hashspace.Id_space.id -> unit) ->
  unit

(** [mem t store id] — does [store] hold the key with census id [id]?
    An id probe on a store on the world interner; by name otherwise. *)
val mem : t -> Data_store.t -> int -> bool

(** [name t id] is the key string with census id [id]. *)
val name : t -> int -> string
