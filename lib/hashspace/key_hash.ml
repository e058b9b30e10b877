let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

(* A plain loop over a local accumulator: the compiler keeps [h] unboxed,
   so hashing a key allocates nothing until the result leaves the
   function (and nothing at all through {!of_string}, which inlines it). *)
let[@inline] fnv1a64 s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h c) fnv_prime
  done;
  !h

(* FNV-1a mixes similar short keys mostly in the low bits; run a
   SplitMix64-style finalizer so the fold below sees avalanched bits. *)
let[@inline] avalanche z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Fold 64 bits down to the ID space by xoring the high and low halves,
   which keeps all input bits influential. *)
let[@inline] fold64 h =
  let h = avalanche h in
  let lo = Int64.to_int (Int64.logand h 0x3FFFFFFFL) in
  let hi = Int64.to_int (Int64.logand (Int64.shift_right_logical h 30) 0x3FFFFFFFL) in
  Id_space.normalize (lo lxor hi)

let of_string key = fold64 (fnv1a64 key)

let of_int v = of_string (string_of_int v)

let of_address ~ip ~port = of_string (Printf.sprintf "%s:%d" ip port)
