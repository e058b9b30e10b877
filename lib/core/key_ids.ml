(* [base] is the world interner's count when the census was taken: ids
   below it are world ids, ids from [base] up are [extra]'s, issued on
   first sight of a key only a foreign store holds.  [size] bounds both:
   every foreign copy could be such a key. *)
type t = { wi : Intern.t; base : int; extra : Intern.t; size : int }

let create w =
  let wi = World.interner w in
  let foreign = ref 0 in
  let count store =
    if Data_store.interner store != wi then foreign := !foreign + Data_store.size store
  in
  World.iter_peers w (fun p ->
      count p.Peer.store;
      count p.Peer.replicas);
  let base = Intern.count wi in
  { wi; base; extra = Intern.create ~initial_capacity:1 (); size = base + !foreign }

let size t = t.size

let id_of_name t key =
  match Intern.find t.wi key with
  | Some id -> id
  | None -> t.base + Intern.intern t.extra key

let iter t store f =
  if Data_store.interner store == t.wi then Data_store.iter_ids store f
  else Data_store.iter store (fun ~key ~value:_ ~route_id:_ -> f (id_of_name t key))

let iter_items t store f =
  if Data_store.interner store == t.wi then
    Data_store.iter_id_items store (fun kid vid route_id ->
        f kid ~value:(Intern.name t.wi vid) ~route_id)
  else Data_store.iter store (fun ~key ~value ~route_id -> f (id_of_name t key) ~value ~route_id)

let name t id = if id < t.base then Intern.name t.wi id else Intern.name t.extra (id - t.base)

let mem t store id =
  if id < t.base && Data_store.interner store == t.wi then Data_store.mem_id store id
  else Data_store.mem store ~key:(name t id)
