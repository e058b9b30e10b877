(* Tests for P2p_hashspace: Id_space ring arithmetic and Key_hash. *)

module Id_space = P2p_hashspace.Id_space
module Key_hash = P2p_hashspace.Key_hash

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_size () =
  checki "size is 2^bits" (1 lsl Id_space.bits) Id_space.size;
  checkb "0 valid" true (Id_space.valid 0);
  checkb "size-1 valid" true (Id_space.valid (Id_space.size - 1));
  checkb "size invalid" false (Id_space.valid Id_space.size);
  checkb "negative invalid" false (Id_space.valid (-1))

let test_normalize () =
  checki "identity" 42 (Id_space.normalize 42);
  checki "wrap" 0 (Id_space.normalize Id_space.size);
  checki "wrap+1" 1 (Id_space.normalize (Id_space.size + 1));
  checki "negative wraps" (Id_space.size - 1) (Id_space.normalize (-1))

(* The mask [normalize] computes is the non-negative remainder it
   replaced, over the whole int range: negative inputs, multiples of the
   size and the extremes included. *)
let prop_normalize_is_mod =
  let modulo i =
    let r = i mod Id_space.size in
    if r < 0 then r + Id_space.size else r
  in
  let ints =
    QCheck.oneof
      [
        QCheck.int;
        QCheck.make ~print:string_of_int
          (QCheck.Gen.map (fun k -> k * Id_space.size) QCheck.Gen.small_signed_int);
        QCheck.oneofl [ min_int; max_int; min_int + 1; max_int - 1; -Id_space.size; 0; -1 ];
      ]
  in
  QCheck.Test.make ~name:"normalize = non-negative mod size" ~count:5000 ints (fun i ->
      Id_space.normalize i = modulo i)

let test_distance () =
  checki "same" 0 (Id_space.distance ~src:5 ~dst:5);
  checki "forward" 3 (Id_space.distance ~src:5 ~dst:8);
  checki "wrap" (Id_space.size - 3) (Id_space.distance ~src:8 ~dst:5)

let test_between () =
  checkb "inside" true (Id_space.between 5 ~left:1 ~right:10);
  checkb "left endpoint excluded" false (Id_space.between 1 ~left:1 ~right:10);
  checkb "right endpoint excluded" false (Id_space.between 10 ~left:1 ~right:10);
  checkb "outside" false (Id_space.between 15 ~left:1 ~right:10);
  (* wrapping interval *)
  checkb "wrap inside high" true (Id_space.between (Id_space.size - 1) ~left:(Id_space.size - 5) ~right:3);
  checkb "wrap inside low" true (Id_space.between 1 ~left:(Id_space.size - 5) ~right:3);
  checkb "wrap outside" false (Id_space.between 10 ~left:(Id_space.size - 5) ~right:3);
  (* degenerate: left = right = whole ring minus the point *)
  checkb "full ring" true (Id_space.between 5 ~left:0 ~right:0);
  checkb "full ring excludes endpoint" false (Id_space.between 0 ~left:0 ~right:0)

let test_between_incl_right () =
  checkb "right endpoint included" true (Id_space.between_incl_right 10 ~left:1 ~right:10);
  checkb "left excluded" false (Id_space.between_incl_right 1 ~left:1 ~right:10);
  checkb "interior" true (Id_space.between_incl_right 2 ~left:1 ~right:10);
  (* single node owns everything *)
  checkb "self segment owns all" true (Id_space.between_incl_right 12345 ~left:7 ~right:7);
  checkb "self segment owns own id" true (Id_space.between_incl_right 7 ~left:7 ~right:7)

let test_midpoint () =
  checki "simple" 5 (Option.get (Id_space.midpoint ~left:0 ~right:10));
  checkb "adjacent has none" true (Id_space.midpoint ~left:4 ~right:5 = None);
  checkb "same point" true (Id_space.midpoint ~left:4 ~right:4 <> None);
  (* wrapping midpoint lies inside the wrapped interval *)
  let m = Option.get (Id_space.midpoint ~left:(Id_space.size - 10) ~right:10) in
  checkb "wrapped midpoint inside" true
    (Id_space.between m ~left:(Id_space.size - 10) ~right:10)

let test_midpoint_always_inside () =
  let rng = P2p_sim.Rng.create 5 in
  for _ = 1 to 1000 do
    let left = P2p_sim.Rng.int rng Id_space.size in
    let right = P2p_sim.Rng.int rng Id_space.size in
    match Id_space.midpoint ~left ~right with
    | Some m -> checkb "midpoint inside (left,right)" true (Id_space.between m ~left ~right)
    | None ->
      checkb "no midpoint only when adjacent" true (Id_space.distance ~src:left ~dst:right <= 1)
  done

let test_add () =
  checki "plain" 15 (Id_space.add 10 5);
  checki "wraps" 4 (Id_space.add (Id_space.size - 1) 5)

let test_finger_start () =
  checki "k=0" 11 (Id_space.finger_start ~base:10 0);
  checki "k=4" 26 (Id_space.finger_start ~base:10 4);
  checki "wraps" 0 (Id_space.finger_start ~base:(Id_space.size - 1) 0
                    |> fun x -> x mod Id_space.size);
  Alcotest.check_raises "k too big" (Invalid_argument "Id_space.finger_start") (fun () ->
      ignore (Id_space.finger_start ~base:0 Id_space.bits : int))

let test_hash_deterministic () =
  checki "same key same id" (Key_hash.of_string "hello") (Key_hash.of_string "hello");
  checkb "different keys differ" true
    (Key_hash.of_string "hello" <> Key_hash.of_string "world")

let test_hash_in_range () =
  let rng = P2p_sim.Rng.create 6 in
  for _ = 1 to 1000 do
    let key = string_of_int (P2p_sim.Rng.int rng 1_000_000_000) in
    checkb "valid id" true (Id_space.valid (Key_hash.of_string key))
  done

let test_hash_dispersion () =
  (* sequential keys should scatter across the space: check quartile
     occupancy *)
  let quartiles = Array.make 4 0 in
  let q_size = Id_space.size / 4 in
  for i = 0 to 9999 do
    let id = Key_hash.of_string (Printf.sprintf "file-%06d" i) in
    quartiles.(min 3 (id / q_size)) <- quartiles.(min 3 (id / q_size)) + 1
  done;
  Array.iteri
    (fun i c ->
      checkb (Printf.sprintf "quartile %d populated" i) true (c > 2000 && c < 3000))
    quartiles

let test_hash_known_fnv () =
  (* FNV-1a 64 reference values *)
  Alcotest.check Alcotest.int64 "empty string" 0xCBF29CE484222325L (Key_hash.fnv1a64 "");
  Alcotest.check Alcotest.int64 "'a'" 0xAF63DC4C8601EC8CL (Key_hash.fnv1a64 "a")

let test_hash_of_address () =
  checkb "address includes port" true
    (Key_hash.of_address ~ip:"10.0.0.1" ~port:80
     <> Key_hash.of_address ~ip:"10.0.0.1" ~port:81)

(* [of_string] pinned on a dozen keys (empty, short, long, non-ASCII
   bytes), and a call allocates nothing: it runs once per insert and per
   lookup on every workload. *)
let test_hash_pinned_no_alloc () =
  let pinned =
    [
      ("", 1025359677);
      ("a", 51828229);
      ("key-0", 2597559);
      ("key-1", 793504459);
      ("key-42", 687837333);
      ("key-000000000012345xx", 921822986);
      ("file_0001.mp3", 584171494);
      ("hello world", 93548565);
      ("10.0.0.1:4000", 707406621);
      ("\255\000\128", 238413874);
      ("the quick brown fox jumps over the lazy dog", 239386473);
      ("zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz", 952184349);
    ]
  in
  List.iter
    (fun (key, id) -> checki (Printf.sprintf "of_string %S" key) id (Key_hash.of_string key))
    pinned;
  let keys = Array.of_list (List.map fst pinned) in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    sink := !sink lxor Key_hash.of_string keys.(i mod Array.length keys)
  done;
  (* the only words counted are [before]'s own box *)
  let per_call = (Gc.minor_words () -. before) /. 10_000.0 in
  checkb "of_string allocates no minor words" true (per_call < 0.001);
  ignore (Sys.opaque_identity !sink)

let suite =
  [
    Alcotest.test_case "size and validity" `Quick test_size;
    Alcotest.test_case "normalize" `Quick test_normalize;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261020 |]) prop_normalize_is_mod;
    Alcotest.test_case "distance" `Quick test_distance;
    Alcotest.test_case "between" `Quick test_between;
    Alcotest.test_case "between_incl_right" `Quick test_between_incl_right;
    Alcotest.test_case "midpoint" `Quick test_midpoint;
    Alcotest.test_case "midpoint always inside (random)" `Quick test_midpoint_always_inside;
    Alcotest.test_case "add" `Quick test_add;
    Alcotest.test_case "finger_start" `Quick test_finger_start;
    Alcotest.test_case "hash deterministic" `Quick test_hash_deterministic;
    Alcotest.test_case "hash in range" `Quick test_hash_in_range;
    Alcotest.test_case "hash dispersion" `Quick test_hash_dispersion;
    Alcotest.test_case "hash FNV reference values" `Quick test_hash_known_fnv;
    Alcotest.test_case "hash of address" `Quick test_hash_of_address;
    Alcotest.test_case "hash pinned, no allocation" `Quick test_hash_pinned_no_alloc;
  ]
