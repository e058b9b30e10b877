module Rng = P2p_sim.Rng

type item = { key : string; value : string; category : int }

(* The names below are [Printf.sprintf "file-%06d-%09d" index tag] and
   ["contents-of-%06d" index], written straight into one string each:
   11 minor words a pair where sprintf takes ~115, and a run generates
   its items inside its timed insert phase. *)

let rec width n = if n < 10 then 1 else 1 + width (n / 10)

(* [pad b ~pos ~width n] writes [n >= 0] in decimal, zero-padded to
   [width] digits (at least as many as [n] has), at [pos]. *)
let pad b ~pos ~width n =
  let n = ref n in
  for i = pos + width - 1 downto pos do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done

let key_name ~index ~tag =
  let wi = max 6 (width index) and wt = max 9 (width tag) in
  let b = Bytes.create (6 + wi + wt) in
  Bytes.blit_string "file-" 0 b 0 5;
  pad b ~pos:5 ~width:wi index;
  Bytes.set b (5 + wi) '-';
  pad b ~pos:(6 + wi) ~width:wt tag;
  Bytes.unsafe_to_string b

let value_name index =
  let wi = max 6 (width index) in
  let b = Bytes.create (12 + wi) in
  Bytes.blit_string "contents-of-" 0 b 0 12;
  pad b ~pos:12 ~width:wi index;
  Bytes.unsafe_to_string b

let generate ~rng ~count ~categories =
  if count < 0 then invalid_arg "Keys.generate: negative count";
  if categories <= 0 then invalid_arg "Keys.generate: categories";
  Array.init count (fun i ->
      let tag = Rng.int rng 1_000_000_000 in
      {
        key = key_name ~index:i ~tag;
        value = value_name i;
        category = Rng.int rng categories;
      })

let d_id item = P2p_hashspace.Key_hash.of_string item.key

let lookup_sequence ~rng ~items ~count =
  if Array.length items = 0 then invalid_arg "Keys.lookup_sequence: no items";
  Array.init count (fun _ -> Rng.pick rng items)

let zipf_lookup_sequence ~rng ~items ~count ~exponent =
  let n = Array.length items in
  if n = 0 then invalid_arg "Keys.zipf_lookup_sequence: no items";
  let sampler = Zipf.create ~n ~exponent in
  Array.init count (fun _ -> items.(Zipf.sample sampler rng))
