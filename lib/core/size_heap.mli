(** The server's size table as an indexed binary min-heap over hosts.

    Each member host carries a key [(size, p_id, host)]; the minimum is
    the smallest size, ties to the lower p_id, then the lower host —
    the first smallest s-network in ring order.  Each host's slot in the
    heap is kept per host, so a size change, an insertion and a removal
    are one sift each, and nothing is allocated once the arrays have
    grown to the largest host and the most members. *)

type t

(** An empty heap. *)
val create : unit -> t

(** [mem t host] — is [host] in the heap? *)
val mem : t -> int -> bool

(** [add t ~host ~size ~p_id] inserts [host] with key [(size, p_id, host)].
    @raise Invalid_argument when [host] is negative or already in. *)
val add : t -> host:int -> size:int -> p_id:int -> unit

(** [remove t host] takes [host] out; a no-op when it is not in. *)
val remove : t -> int -> unit

(** [set_size t host size] changes the size in [host]'s key.
    @raise Invalid_argument when [host] is not in the heap. *)
val set_size : t -> int -> int -> unit

(** [p_id t host] is the p_id in [host]'s key.
    @raise Invalid_argument when [host] is not in the heap. *)
val p_id : t -> int -> int

(** [min t] is the host with the smallest key, [-1] when empty. *)
val min : t -> int
