(** Synthetic data-sharing workloads.

    The paper's experiments insert data items (key, value pairs — file
    names and file contents) generated at random peers, then issue lookups
    for previously inserted keys.  This module produces those keys
    deterministically from a seeded RNG, optionally tagged with an interest
    category for the interest-based s-network experiments. *)

type item = {
  key : string;
  value : string;
  category : int; (** interest category, in [\[0, categories)] *)
}

(** [generate ~rng ~count ~categories] makes [count] distinct items with
    uniformly random category tags.
    @raise Invalid_argument if [count < 0] or [categories <= 0]. *)
val generate : rng:P2p_sim.Rng.t -> count:int -> categories:int -> item array

(** [key_name ~index ~tag] is item [index]'s key, as
    [Printf.sprintf "file-%06d-%09d" index tag], and [value_name index]
    its value, as [Printf.sprintf "contents-of-%06d" index]; both take
    [index, tag >= 0]. *)
val key_name : index:int -> tag:int -> string

val value_name : int -> string

(** [d_id item] is the item's hashed ID in the shared space. *)
val d_id : item -> P2p_hashspace.Id_space.id

(** [lookup_sequence ~rng ~items ~count] draws [count] uniform lookup
    targets (with replacement) from previously generated items. *)
val lookup_sequence : rng:P2p_sim.Rng.t -> items:item array -> count:int -> item array

(** [zipf_lookup_sequence ~rng ~items ~count ~exponent] draws lookups with
    Zipf-distributed popularity over item rank (rank 0 most popular). *)
val zipf_lookup_sequence :
  rng:P2p_sim.Rng.t -> items:item array -> count:int -> exponent:float -> item array
