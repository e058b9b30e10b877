type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 finalizer: xor-shift/multiply avalanche of the incremented
   state.  Reference: Steele, Lea, Flood, "Fast splittable pseudorandom
   number generators" (OOPSLA 2014).  Inlined, so [hash62] keeps its
   arithmetic unboxed: a per-op sampling decision allocates nothing. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let hash62 ~seed x =
  (* One stateless SplitMix64 step: item [x] indexes the stream position,
     [seed] selects the stream.  No state, so callers can hash the same
     item repeatedly (per-op sampling decisions) at constant cost. *)
  let z =
    Int64.add (Int64.mul (Int64.of_int x) golden_gamma) (Int64.of_int seed)
  in
  Int64.to_int (Int64.shift_right_logical (mix z) 2)

let split t =
  let seed = bits64 t in
  { state = seed }

let nonneg_int t =
  (* Take the top 62 bits so the result fits a native OCaml int. *)
  Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias; a loop, not a local
     recursive function, so a draw allocates no closure. *)
  let max_int62 = (1 lsl 62) - 1 in
  let limit = max_int62 - (max_int62 mod bound) in
  let v = ref (nonneg_int t) in
  while !v >= limit do
    v := nonneg_int t
  done;
  !v mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let float_in_range t ~lo ~hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-300 else u in
  -.mean *. log u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t ~k arr =
  let n = Array.length arr in
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  let copy = Array.copy arr in
  (* Partial Fisher-Yates: after i swaps the first i slots are the sample. *)
  for i = 0 to k - 1 do
    let j = int_in_range t ~lo:i ~hi:(n - 1) in
    let tmp = copy.(i) in
    copy.(i) <- copy.(j);
    copy.(j) <- tmp
  done;
  Array.sub copy 0 k
