(* Entries are (kid, tag) pairs in one flat int array, grown by
   doubling up to the limit. *)
type t = {
  mutable gen : int;  (* the last recording started; 0 = none yet *)
  mutable on : bool;
  mutable entries : int array;
  mutable len : int;  (* entries recorded: 2 · len ints used *)
  mutable limit : int;
}

let create () = { gen = 0; on = false; entries = [||]; len = 0; limit = 0 }

let inert = create ()

let push t kid tag =
  if t.len >= t.limit then begin
    (* past the limit the recording overflows: off, and the buffer goes,
       so a reader that never comes back holds nothing *)
    t.on <- false;
    t.entries <- [||];
    t.len <- 0
  end
  else begin
    let i = 2 * t.len in
    if i >= Array.length t.entries then begin
      let grown = Array.make (max 64 (2 * Array.length t.entries)) 0 in
      Array.blit t.entries 0 grown 0 i;
      t.entries <- grown
    end;
    t.entries.(i) <- kid;
    t.entries.(i + 1) <- tag;
    t.len <- t.len + 1
  end

let[@inline] note t ~kid ~tag = if t.on then push t kid tag

let restart t ~limit =
  if t == inert then invalid_arg "Key_log.restart: the inert log";
  t.gen <- t.gen + 1;
  t.on <- true;
  t.len <- 0;
  t.limit <- limit;
  t.gen

let stop t = t.on <- false

let readable t ~gen = t.on && t.gen = gen

let on t = t.on

let length t = t.len

let kid t i = t.entries.(2 * i)

let tag t i = t.entries.((2 * i) + 1)
