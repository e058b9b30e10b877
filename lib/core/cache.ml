type entry = { value : string; expiry : float }

(* Eviction order comes from a min-heap of (expiry, key) pairs with lazy
   deletion: refreshing an entry pushes a new pair and strands the old one,
   which is discarded when it surfaces (its expiry no longer matches the
   table).  The heap is rebuilt from the table when stranded pairs dominate,
   bounding it at O(capacity). *)
type t = {
  capacity : int;
  entries : (string, entry) Hashtbl.t;
  mutable heap : (float * string) array;
  mutable heap_size : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  {
    capacity;
    entries = Hashtbl.create (min 64 (capacity + 1));
    heap = [||];
    heap_size = 0;
    hits = 0;
    misses = 0;
  }

let size t = Hashtbl.length t.entries

let capacity t = t.capacity

let heap_before a b = fst a < fst b || (fst a = fst b && snd a <= snd b)

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_before t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.heap_size && heap_before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.heap_size && heap_before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let heap_push t pair =
  let cap = Array.length t.heap in
  if t.heap_size = cap then begin
    let heap = Array.make (if cap = 0 then 16 else cap * 2) pair in
    Array.blit t.heap 0 heap 0 t.heap_size;
    t.heap <- heap
  end;
  t.heap.(t.heap_size) <- pair;
  t.heap_size <- t.heap_size + 1;
  sift_up t (t.heap_size - 1)

let heap_pop t =
  let top = t.heap.(0) in
  t.heap_size <- t.heap_size - 1;
  if t.heap_size > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_size);
    sift_down t 0
  end;
  top

(* A heap pair is live iff the table still maps its key to its expiry. *)
let pair_live t (expiry, key) =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e.expiry = expiry
  | None -> false

let rebuild_heap t =
  t.heap_size <- 0;
  Hashtbl.iter (fun key e -> heap_push t (e.expiry, key)) t.entries

(* Stranded pairs never exceed one per refresh; rebuild when they are the
   majority so the heap stays within a small factor of the live set. *)
let maybe_compact t =
  if t.heap_size > 16 && t.heap_size > 2 * Hashtbl.length t.entries then
    rebuild_heap t

let evict_soonest t =
  let rec pop () =
    if t.heap_size > 0 then begin
      let pair = heap_pop t in
      if pair_live t pair then Hashtbl.remove t.entries (snd pair) else pop ()
    end
  in
  pop ()

let put t ~now ~lifetime ~key ~value =
  if t.capacity > 0 then begin
    if (not (Hashtbl.mem t.entries key)) && Hashtbl.length t.entries >= t.capacity then
      evict_soonest t;
    Hashtbl.replace t.entries key { value; expiry = now +. lifetime };
    heap_push t (now +. lifetime, key);
    maybe_compact t
  end

let find t ~now ~key =
  match Hashtbl.find_opt t.entries key with
  | Some e when e.expiry > now ->
    t.hits <- t.hits + 1;
    Some e.value
  | Some _ ->
    Hashtbl.remove t.entries key;
    t.misses <- t.misses + 1;
    None
  | None ->
    t.misses <- t.misses + 1;
    None

let hits t = t.hits

let misses t = t.misses
