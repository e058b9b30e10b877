type 'p t = {
  mutable gen : int;  (* 0 = off *)
  mutable peers : 'p list;
  mutable entries : int;  (* peers logged this generation *)
  mutable limit : int;
  mutable lost : bool;
  mutable next_gen : int;  (* the last generation handed out *)
  keys : Key_log.t;
}

let create () =
  { gen = 0; peers = []; entries = 0; limit = 0; lost = false; next_gen = 0;
    keys = Key_log.create () }

let keys t = t.keys

let generation t = t.gen

(* Past the limit a generation is lost: it stops recording (the stamps
   compare against 0 from now on), so a reader that never comes back
   costs nothing more. *)
let add_peer t p =
  if t.gen > 0 then begin
    t.peers <- p :: t.peers;
    t.entries <- t.entries + 1;
    if t.entries > t.limit then begin
      t.lost <- true;
      t.gen <- 0;
      t.peers <- []
    end
  end

let restart t ~limit =
  t.next_gen <- t.next_gen + 1;
  t.gen <- t.next_gen;
  t.peers <- [];
  t.entries <- 0;
  t.limit <- limit;
  t.lost <- false;
  t.gen

let readable t ~gen = gen > 0 && t.gen = gen && not t.lost

let peers t = t.peers
