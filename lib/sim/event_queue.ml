type handle = {
  mutable dead : bool;
  mutable queued : bool;  (* still physically present in the heap *)
  dead_count : int ref;  (* shared with the owning queue *)
}

(* An indexed binary heap.  Heap order lives in three unboxed arrays
   indexed by heap position — [times], [seqs] and [slots] — so a sift step
   moves only floats and ints and never pays the write barrier.  Payloads
   and handles live in slot-indexed arrays: a slot is taken from the free
   list on insertion, written once, and cleared once on removal, and it
   never moves while the event is queued.  Slots in use always number
   [size], so the slot space and the heap share one capacity. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable values : 'a array;  (* slot -> payload; free slots hold [dummy] *)
  mutable handles : handle array;  (* slot -> handle; free slots hold [immortal] *)
  mutable free : int array;  (* free slots in [free.(0 .. free_len - 1)] *)
  mutable free_len : int;
  mutable size : int;
  mutable tick : int;
  dead_in_heap : int ref;  (* cancelled events still occupying heap positions *)
  immortal : handle;  (* shared handle for never-cancelled events *)
}

(* The filler of free payload slots.  It is an immediate, so a cleared
   slot retains nothing, and it is never read back: every read is of a
   slot that an insertion wrote.  The payload array is only ever accessed
   generically (this module is polymorphic in ['a]), so a float payload
   stored into it stays boxed and is read back as written. *)
let dummy () : 'a = Obj.magic 0

let create () =
  let dead_in_heap = ref 0 in
  {
    times = [||];
    seqs = [||];
    slots = [||];
    values = [||];
    handles = [||];
    free = [||];
    free_len = 0;
    size = 0;
    tick = 0;
    dead_in_heap;
    immortal = { dead = false; queued = false; dead_count = dead_in_heap };
  }

let grow t =
  let cap = Array.length t.times in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let extend a fill =
    let b = Array.make new_cap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.values <- extend t.values (dummy ());
  t.handles <- extend t.handles t.immortal;
  (* every slot was in use (size = cap), so the free list is just the new
     slots; push them highest first so the lowest is taken first *)
  t.free <- Array.make new_cap 0;
  for s = 0 to new_cap - cap - 1 do
    t.free.(s) <- new_cap - 1 - s
  done;
  t.free_len <- new_cap - cap

let release t slot =
  t.values.(slot) <- dummy ();
  if t.handles.(slot) != t.immortal then t.handles.(slot) <- t.immortal;
  t.free.(t.free_len) <- slot;
  t.free_len <- t.free_len + 1

(* The heap order: [(time, seq)], lexicographic.  Inlined, so the floats
   stay unboxed. *)
let[@inline] before (time : float) (seq : int) time' seq' =
  time < time' || (time = time' && seq < seq')

(* Move the event at heap position [i] up to its place: ancestors that
   order after it shift down one level into the hole, and the event is
   written once where the hole stops. *)
let sift_up t i =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let time = times.(i) and seq = seqs.(i) and slot = slots.(i) in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = times.(p) in
    if before time seq pt seqs.(p) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Move the event at heap position [i] down to its place, the earlier
   child rising into the hole at each level. *)
let sift_down t i =
  let times = t.times and seqs = t.seqs and slots = t.slots and size = t.size in
  let time = times.(i) and seq = seqs.(i) and slot = slots.(i) in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= size then moving := false
    else begin
      let r = l + 1 in
      let c = if r < size && before times.(r) seqs.(r) times.(l) seqs.(l) then r else l in
      let ct = times.(c) in
      if before ct seqs.(c) time seq then begin
        times.(!i) <- ct;
        seqs.(!i) <- seqs.(c);
        slots.(!i) <- slots.(c);
        i := c
      end
      else moving := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Squeeze every cancelled event out in one pass and re-heapify.  Lazy
   cancellation only frees dead events when they surface at the root, so
   timer-heavy churn (watchdog resets, anti-entropy rearming) would
   otherwise keep arbitrarily many dead heap positions alive. *)
let compact t =
  let live = ref 0 in
  for i = 0 to t.size - 1 do
    let slot = t.slots.(i) in
    let h = t.handles.(slot) in
    if h.dead then begin
      h.queued <- false;
      release t slot
    end
    else begin
      t.times.(!live) <- t.times.(i);
      t.seqs.(!live) <- t.seqs.(i);
      t.slots.(!live) <- slot;
      incr live
    end
  done;
  t.size <- !live;
  t.dead_in_heap := 0;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

let maybe_compact t = if t.size >= 16 && 2 * !(t.dead_in_heap) > t.size then compact t

let push t ~time value handle =
  maybe_compact t;
  if t.size = Array.length t.times then grow t;
  t.free_len <- t.free_len - 1;
  let slot = t.free.(t.free_len) in
  t.values.(slot) <- value;
  if handle != t.immortal then t.handles.(slot) <- handle;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.tick;
  t.slots.(i) <- slot;
  t.tick <- t.tick + 1;
  t.size <- i + 1;
  sift_up t i

let add t ~time value =
  let handle = { dead = false; queued = true; dead_count = t.dead_in_heap } in
  push t ~time value handle;
  handle

let add_fast t ~time value = push t ~time value t.immortal

let null_handle = { dead = true; queued = false; dead_count = ref 0 }

let cancel h =
  if not h.dead then begin
    h.dead <- true;
    if h.queued then incr h.dead_count
  end

let cancelled h = h.dead

(* Remove the root event and free its slot (the caller has read what it
   needs from the slot first). *)
let remove_top t =
  let slot = t.slots.(0) in
  let h = t.handles.(slot) in
  h.queued <- false;
  if h.dead then decr t.dead_in_heap;
  release t slot;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.times.(0) <- t.times.(last);
    t.seqs.(0) <- t.seqs.(last);
    t.slots.(0) <- t.slots.(last);
    sift_down t 0
  end

(* Discard dead events sitting at the root. *)
let rec drop_dead t =
  if t.size > 0 && t.handles.(t.slots.(0)).dead then begin
    remove_top t;
    drop_dead t
  end

let pop t =
  drop_dead t;
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    let value = t.values.(t.slots.(0)) in
    remove_top t;
    Some (time, value)
  end

let pop_apply t f =
  drop_dead t;
  if t.size = 0 then false
  else begin
    let time = t.times.(0) in
    let value = t.values.(t.slots.(0)) in
    remove_top t;
    f time value;
    true
  end

let peek_time t =
  drop_dead t;
  if t.size = 0 then None else Some t.times.(0)

let next_time t =
  drop_dead t;
  if t.size = 0 then infinity else t.times.(0)

let is_empty t =
  drop_dead t;
  t.size = 0

let length t = t.size

let live_length t = t.size - !(t.dead_in_heap)
