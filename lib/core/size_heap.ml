(* [count] members in heap order: slot [i] holds a host and its key's
   size and p_id, in three columns.  [pos] maps a host to its slot (-1
   when out); it grows as the world's host arrays do, doubling from 16. *)
type t = {
  mutable host : int array;
  mutable size : int array;
  mutable p_id : int array;
  mutable count : int;
  mutable pos : int array;
}

let create () = { host = [||]; size = [||]; p_id = [||]; count = 0; pos = [||] }

let mem t host = host >= 0 && host < Array.length t.pos && t.pos.(host) >= 0

let slot t host what =
  if not (mem t host) then invalid_arg ("Size_heap." ^ what ^ ": host not in");
  t.pos.(host)

(* slot [i]'s key below slot [j]'s *)
let[@inline] less t i j =
  let si = t.size.(i) and sj = t.size.(j) in
  si < sj
  ||
  (si = sj
  &&
  let pi = t.p_id.(i) and pj = t.p_id.(j) in
  pi < pj || (pi = pj && t.host.(i) < t.host.(j)))

let swap t i j =
  let h = t.host.(i) and s = t.size.(i) and p = t.p_id.(i) in
  t.host.(i) <- t.host.(j);
  t.size.(i) <- t.size.(j);
  t.p_id.(i) <- t.p_id.(j);
  t.host.(j) <- h;
  t.size.(j) <- s;
  t.p_id.(j) <- p;
  t.pos.(t.host.(i)) <- i;
  t.pos.(h) <- j

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if less t i p then begin
      swap t i p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.count then begin
    let c = if l + 1 < t.count && less t (l + 1) l then l + 1 else l in
    if less t c i then begin
      swap t i c;
      sift_down t c
    end
  end

let grown a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let add t ~host ~size ~p_id =
  if host < 0 then invalid_arg "Size_heap.add: negative host";
  if mem t host then invalid_arg "Size_heap.add: host already in";
  let n = Array.length t.pos in
  if host >= n then begin
    let cap = ref (max 16 n) in
    while host >= !cap do
      cap := !cap * 2
    done;
    t.pos <- grown t.pos !cap (-1)
  end;
  let i = t.count in
  if i = Array.length t.host then begin
    let cap = max 16 (2 * i) in
    t.host <- grown t.host cap 0;
    t.size <- grown t.size cap 0;
    t.p_id <- grown t.p_id cap 0
  end;
  t.host.(i) <- host;
  t.size.(i) <- size;
  t.p_id.(i) <- p_id;
  t.pos.(host) <- i;
  t.count <- i + 1;
  sift_up t i

let remove t host =
  if mem t host then begin
    let i = t.pos.(host) and last = t.count - 1 in
    if i < last then swap t i last;
    t.pos.(host) <- -1;
    t.count <- last;
    if i < last then begin
      sift_up t i;
      sift_down t i
    end
  end

let set_size t host size =
  let i = slot t host "set_size" in
  let old = t.size.(i) in
  t.size.(i) <- size;
  if size < old then sift_up t i else if size > old then sift_down t i

let p_id t host = t.p_id.(slot t host "p_id")

let min t = if t.count = 0 then -1 else t.host.(0)
