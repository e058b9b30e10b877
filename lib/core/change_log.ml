(* Entries sit in one array, grown by doubling up to the limit; a slot
   past [len] holds the entry whose push grew the array, or nothing. *)
type 'a t = {
  mutable gen : int;  (* the recording on now; 0 = off *)
  mutable last : int;  (* the last recording number handed out *)
  mutable entries : 'a array;
  mutable len : int;
  mutable limit : int;
  inert : bool;
}

let make inert = { gen = 0; last = 0; entries = [||]; len = 0; limit = 0; inert }

let create () = make false

let inert () = make true

let generation t = t.gen

let push t x =
  if t.len >= t.limit then begin
    (* past the limit the recording overflows: off, and the entries go,
       so a reader that never comes back holds nothing *)
    t.gen <- 0;
    t.entries <- [||];
    t.len <- 0
  end
  else begin
    if t.len = Array.length t.entries then begin
      let grown = Array.make (max 16 (2 * t.len)) x in
      Array.blit t.entries 0 grown 0 t.len;
      t.entries <- grown
    end;
    t.entries.(t.len) <- x;
    t.len <- t.len + 1
  end

let[@inline] add t x = if t.gen <> 0 then push t x

let restart t ~limit =
  if t.inert then invalid_arg "Change_log.restart: the journal of no world";
  t.last <- t.last + 1;
  t.gen <- t.last;
  t.entries <- [||];
  t.len <- 0;
  t.limit <- limit;
  t.gen

let stop t = t.gen <- 0

let readable t ~gen = gen > 0 && t.gen = gen

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Change_log.get: no such entry";
  t.entries.(i)
