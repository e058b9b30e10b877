open P2p_hashspace

(* Flat open-addressed layout: three parallel int arrays (interned key id,
   interned value id, route_id) with linear probing.  A store holds no
   per-item heap blocks at all — one item costs three words here plus the
   (world-shared) interned strings — where the previous string-keyed
   Hashtbl paid a bucket, an entry record and a per-copy key pointer for
   every item on every peer.  Empty stores hold empty arrays: at million-
   peer scale most peers store a handful of items and the fixed per-peer
   footprint is what dominates RSS. *)

let empty_slot = -1

let tombstone = -2

type t = {
  interner : Intern.t;
  log : int Change_log.t;  (* where writes are journaled, with [tag] *)
  tag : int;
  mutable keys : int array;  (* key id, or [empty_slot] / [tombstone] *)
  mutable vals : int array;
  mutable routes : int array;
  mutable live : int;
  mutable used : int;  (* live + tombstones: occupied probe slots *)
}

let no_world : int Change_log.t = Change_log.inert ()

let create ~interner ?(log = no_world) ?(tag = 0) () =
  { interner; log; tag; keys = [||]; vals = [||]; routes = [||]; live = 0; used = 0 }

let interner t = t.interner

let tag t = t.tag

(* The tag sits in the low bits, plus one so that 0 means none: sorting
   entries orders them by key, then tag. *)
let tag_bits = 31

let entry ~kid ~tag = (kid lsl tag_bits) lor (tag + 1)

let entry_kid e = e lsr tag_bits

let entry_tag e = (e land ((1 lsl tag_bits) - 1)) - 1

let note t kid = Change_log.add t.log (entry ~kid ~tag:t.tag)

let size t = t.live

(* Multiplicative mixing spreads the dense interned ids over the table;
   capacity is always a power of two so the mask is the modulus. *)
let mix kid cap = kid * 0x9e3779b1 land (cap - 1)

let rehash t cap =
  let keys = Array.make cap empty_slot in
  let vals = Array.make cap 0 in
  let routes = Array.make cap 0 in
  let old_keys = t.keys and old_vals = t.vals and old_routes = t.routes in
  for i = 0 to Array.length old_keys - 1 do
    let kid = old_keys.(i) in
    if kid >= 0 then begin
      let j = ref (mix kid cap) in
      while keys.(!j) <> empty_slot do
        j := (!j + 1) land (cap - 1)
      done;
      keys.(!j) <- kid;
      vals.(!j) <- old_vals.(i);
      routes.(!j) <- old_routes.(i)
    end
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.routes <- routes;
  t.used <- t.live

let ensure_room t =
  let cap = Array.length t.keys in
  if cap = 0 then rehash t 8
  else if 4 * (t.used + 1) > 3 * cap then
    (* grow only when live entries justify it; otherwise the rehash just
       squeezes out tombstones at the same capacity *)
    rehash t (if 2 * t.live >= cap then 2 * cap else cap)

let insert_routed t ~route_id ~key ~value =
  ensure_room t;
  let kid = Intern.intern t.interner key in
  let cap = Array.length t.keys in
  let first_free = ref (-1) in
  let i = ref (mix kid cap) in
  let result = ref (-1) in
  (* probe until the key or a hard empty slot; remember the first
     reusable slot (tombstone or empty) for the insertion case *)
  while !result < 0 do
    let k = t.keys.(!i) in
    if k = kid then result := !i
    else if k = empty_slot then begin
      if !first_free < 0 then first_free := !i;
      result := !first_free;
      t.keys.(!result) <- kid;
      t.live <- t.live + 1;
      if !result = !i then t.used <- t.used + 1
    end
    else begin
      if k = tombstone && !first_free < 0 then first_free := !i;
      i := (!i + 1) land (cap - 1)
    end
  done;
  t.vals.(!result) <- Intern.intern t.interner value;
  t.routes.(!result) <- route_id;
  note t kid

let insert t ~key ~value =
  insert_routed t ~route_id:(Key_hash.of_string key) ~key ~value

(* Probe for key id [kid]'s slot, or [-1] when absent.  A loop, not a
   local recursive function: that would be a closure allocated per
   probe. *)
let slot_of_id t kid =
  if t.live = 0 then -1
  else begin
    let keys = t.keys in
    let cap = Array.length keys in
    let i = ref (mix kid cap) in
    while keys.(!i) <> kid && keys.(!i) <> empty_slot do
      i := (!i + 1) land (cap - 1)
    done;
    if keys.(!i) = kid then !i else -1
  end

(* [-1] also when [key] was never interned, or interned only by other
   stores sharing the interner. *)
let slot_of t ~key =
  if t.live = 0 then -1
  else match Intern.find t.interner key with None -> -1 | Some kid -> slot_of_id t kid

let value_at t = function -1 -> None | i -> Some (Intern.name t.interner t.vals.(i))

let find t ~key = value_at t (slot_of t ~key)

let find_id t kid = value_at t (slot_of_id t kid)

let value_id t kid = match slot_of_id t kid with -1 -> -1 | i -> t.vals.(i)

let route_of_id t kid = match slot_of_id t kid with -1 -> -1 | i -> t.routes.(i)

let mem t ~key = slot_of t ~key >= 0

let mem_id t kid = slot_of_id t kid >= 0

let remove t ~key =
  match slot_of t ~key with
  | -1 -> ()
  | i ->
    note t t.keys.(i);
    t.keys.(i) <- tombstone;
    t.live <- t.live - 1

let iter t f =
  Array.iteri
    (fun i kid ->
      if kid >= 0 then
        f
          ~key:(Intern.name t.interner kid)
          ~value:(Intern.name t.interner t.vals.(i))
          ~route_id:t.routes.(i))
    t.keys

let iter_ids t f =
  let keys = t.keys in
  for i = 0 to Array.length keys - 1 do
    let kid = keys.(i) in
    if kid >= 0 then f kid
  done

let iter_id_items t f =
  let keys = t.keys in
  for i = 0 to Array.length keys - 1 do
    let kid = keys.(i) in
    if kid >= 0 then f kid t.vals.(i) t.routes.(i)
  done

let segment_items t ~left ~right =
  let acc = ref [] in
  Array.iteri
    (fun i kid ->
      if kid >= 0 && Id_space.between_incl_right t.routes.(i) ~left ~right then
        acc :=
          ( Intern.name t.interner kid,
            Intern.name t.interner t.vals.(i),
            t.routes.(i) )
          :: !acc)
    t.keys;
  !acc

let take_segment t ~left ~right =
  let acc = ref [] in
  Array.iteri
    (fun i kid ->
      if kid >= 0 && Id_space.between_incl_right t.routes.(i) ~left ~right then begin
        acc :=
          ( Intern.name t.interner kid,
            Intern.name t.interner t.vals.(i),
            t.routes.(i) )
          :: !acc;
        note t kid;
        t.keys.(i) <- tombstone;
        t.live <- t.live - 1
      end)
    t.keys;
  !acc

(* Order-independent content digest: XOR of per-item hashes commutes, so
   two stores holding the same (key, value, route_id) set produce the
   same digest regardless of insertion order; the count term
   distinguishes the empty set from self-cancelling pairs. *)
let digest_items items =
  List.fold_left
    (fun acc (key, value, route_id) -> acc lxor Hashtbl.hash (key, value, route_id))
    (List.length items * 0x9e3779b1)
    items

let segment_digest t ~left ~right = digest_items (segment_items t ~left ~right)

let note_held t = if Change_log.generation t.log <> 0 then iter_ids t (note t)

let clear t =
  note_held t;
  t.keys <- [||];
  t.vals <- [||];
  t.routes <- [||];
  t.live <- 0;
  t.used <- 0

let take_all t =
  let acc = ref [] in
  Array.iteri
    (fun i kid ->
      if kid >= 0 then
        acc :=
          ( Intern.name t.interner kid,
            Intern.name t.interner t.vals.(i),
            t.routes.(i) )
          :: !acc)
    t.keys;
  clear t;
  !acc

let keys t =
  let acc = ref [] in
  Array.iter (fun kid -> if kid >= 0 then acc := Intern.name t.interner kid :: !acc) t.keys;
  !acc
