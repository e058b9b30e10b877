(* Tests for P2p_workload: Keys, Zipf, Churn. *)

module Rng = P2p_sim.Rng
module Keys = P2p_workload.Keys
module Zipf = P2p_workload.Zipf
module Churn = P2p_workload.Churn

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf3 = Alcotest.check (Alcotest.float 1e-3)

let test_keys_distinct () =
  let items = Keys.generate ~rng:(Rng.create 1) ~count:1000 ~categories:5 in
  checki "count" 1000 (Array.length items);
  let seen = Hashtbl.create 1000 in
  Array.iter
    (fun it ->
      checkb "unique key" false (Hashtbl.mem seen it.Keys.key);
      Hashtbl.add seen it.Keys.key ();
      checkb "category in range" true (it.Keys.category >= 0 && it.Keys.category < 5))
    items

let test_keys_deterministic () =
  let a = Keys.generate ~rng:(Rng.create 9) ~count:10 ~categories:3 in
  let b = Keys.generate ~rng:(Rng.create 9) ~count:10 ~categories:3 in
  Array.iteri
    (fun i it -> Alcotest.check Alcotest.string "same keys" it.Keys.key b.(i).Keys.key)
    a

let test_keys_d_id_valid () =
  let items = Keys.generate ~rng:(Rng.create 2) ~count:100 ~categories:2 in
  Array.iter
    (fun it -> checkb "valid d_id" true (P2p_hashspace.Id_space.valid (Keys.d_id it)))
    items

let test_keys_rejects () =
  Alcotest.check_raises "negative count" (Invalid_argument "Keys.generate: negative count")
    (fun () -> ignore (Keys.generate ~rng:(Rng.create 1) ~count:(-1) ~categories:1 : Keys.item array));
  Alcotest.check_raises "no categories" (Invalid_argument "Keys.generate: categories")
    (fun () -> ignore (Keys.generate ~rng:(Rng.create 1) ~count:1 ~categories:0 : Keys.item array))

(* The hand-written names agree byte for byte with the Printf formats
   they replace, at the pad boundaries and past them. *)
let test_keys_match_printf () =
  let checks = Alcotest.check Alcotest.string in
  List.iter
    (fun index ->
      List.iter
        (fun tag ->
          checks "key" (Printf.sprintf "file-%06d-%09d" index tag) (Keys.key_name ~index ~tag))
        [ 0; 7; 99_999_999; 999_999_999 ];
      checks "value" (Printf.sprintf "contents-of-%06d" index) (Keys.value_name index))
    [ 0; 9; 10; 99_999; 999_999; 1_000_000; 12_345_678 ];
  let rng = Rng.create 4 in
  let items = Keys.generate ~rng:(Rng.create 4) ~count:200 ~categories:3 in
  Array.iteri
    (fun i it ->
      let tag = Rng.int rng 1_000_000_000 in
      ignore (Rng.int rng 3 : int);
      checks "generated key" (Printf.sprintf "file-%06d-%09d" i tag) it.Keys.key;
      checks "generated value" (Printf.sprintf "contents-of-%06d" i) it.Keys.value)
    items

let test_lookup_sequence () =
  let rng = Rng.create 3 in
  let items = Keys.generate ~rng ~count:50 ~categories:1 in
  let seq = Keys.lookup_sequence ~rng ~items ~count:500 in
  checki "length" 500 (Array.length seq);
  Array.iter
    (fun it -> checkb "drawn from items" true (Array.exists (fun x -> x == it) items))
    seq

let test_zipf_probabilities_sum () =
  let z = Zipf.create ~n:100 ~exponent:1.0 in
  let sum = ref 0.0 in
  for k = 0 to 99 do
    sum := !sum +. Zipf.probability z k
  done;
  checkf3 "sums to 1" 1.0 !sum

let test_zipf_monotone () =
  let z = Zipf.create ~n:50 ~exponent:0.8 in
  for k = 1 to 49 do
    checkb "decreasing" true (Zipf.probability z k <= Zipf.probability z (k - 1) +. 1e-12)
  done

let test_zipf_uniform_when_zero_exponent () =
  let z = Zipf.create ~n:10 ~exponent:0.0 in
  for k = 0 to 9 do
    checkf3 "uniform" 0.1 (Zipf.probability z k)
  done

let test_zipf_sampling_skew () =
  let z = Zipf.create ~n:100 ~exponent:1.2 in
  let rng = Rng.create 4 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  checkb "rank 0 dominates rank 50" true (counts.(0) > 10 * counts.(50));
  (* empirical top-rank frequency near its probability *)
  let p0 = float_of_int counts.(0) /. 20_000.0 in
  checkb "empirical matches model" true (abs_float (p0 -. Zipf.probability z 0) < 0.02)

let test_zipf_rejects () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Zipf.create: n") (fun () ->
      ignore (Zipf.create ~n:0 ~exponent:1.0 : Zipf.t));
  let z = Zipf.create ~n:5 ~exponent:1.0 in
  Alcotest.check_raises "rank out of range" (Invalid_argument "Zipf.probability")
    (fun () -> ignore (Zipf.probability z 5 : float))

let test_zipf_lookup_sequence () =
  let rng = Rng.create 5 in
  let items = Keys.generate ~rng ~count:20 ~categories:1 in
  let seq = Keys.zipf_lookup_sequence ~rng ~items ~count:2000 ~exponent:1.5 in
  let count_first = Array.fold_left (fun acc it -> if it == items.(0) then acc + 1 else acc) 0 seq in
  let count_last =
    Array.fold_left (fun acc it -> if it == items.(19) then acc + 1 else acc) 0 seq
  in
  checkb "head much hotter than tail" true (count_first > 5 * max 1 count_last)

let test_churn_poisson_rates () =
  let rng = Rng.create 6 in
  let events =
    Churn.poisson ~rng ~duration:10_000.0 ~join_rate:0.01 ~leave_rate:0.005 ~crash_rate:0.0
  in
  checkb "sorted" true (Churn.is_sorted events);
  let joins = List.length (List.filter (fun e -> e.Churn.kind = Churn.Join) events) in
  let leaves = List.length (List.filter (fun e -> e.Churn.kind = Churn.Leave) events) in
  let crashes = List.length (List.filter (fun e -> e.Churn.kind = Churn.Crash) events) in
  checkb "join count near 100" true (joins > 60 && joins < 150);
  checkb "leave count near 50" true (leaves > 25 && leaves < 85);
  checki "no crashes at rate 0" 0 crashes;
  List.iter
    (fun e -> checkb "within duration" true (e.Churn.time >= 0.0 && e.Churn.time < 10_000.0))
    events

let test_churn_rejects () =
  Alcotest.check_raises "negative rate" (Invalid_argument "Churn.poisson: negative rate")
    (fun () ->
      ignore
        (Churn.poisson ~rng:(Rng.create 1) ~duration:1.0 ~join_rate:(-1.0) ~leave_rate:0.0
           ~crash_rate:0.0
          : Churn.event list))

let test_crash_storm () =
  let rng = Rng.create 7 in
  let victims = Churn.crash_storm ~rng ~population:100 ~fraction:0.25 in
  checki "size" 25 (Array.length victims);
  let seen = Hashtbl.create 32 in
  Array.iter
    (fun v ->
      checkb "in range" true (v >= 0 && v < 100);
      checkb "distinct" false (Hashtbl.mem seen v);
      Hashtbl.add seen v ())
    victims;
  checki "fraction 0" 0 (Array.length (Churn.crash_storm ~rng ~population:100 ~fraction:0.0));
  checki "fraction 1" 100 (Array.length (Churn.crash_storm ~rng ~population:100 ~fraction:1.0));
  Alcotest.check_raises "bad fraction" (Invalid_argument "Churn.crash_storm: fraction")
    (fun () -> ignore (Churn.crash_storm ~rng ~population:10 ~fraction:1.5 : int array))

let suite =
  [
    Alcotest.test_case "keys: distinct and tagged" `Quick test_keys_distinct;
    Alcotest.test_case "keys: deterministic" `Quick test_keys_deterministic;
    Alcotest.test_case "keys: valid d_ids" `Quick test_keys_d_id_valid;
    Alcotest.test_case "keys: rejects bad args" `Quick test_keys_rejects;
    Alcotest.test_case "keys: lookup sequence" `Quick test_lookup_sequence;
    Alcotest.test_case "zipf: probabilities sum to 1" `Quick test_zipf_probabilities_sum;
    Alcotest.test_case "zipf: monotone" `Quick test_zipf_monotone;
    Alcotest.test_case "zipf: exponent 0 is uniform" `Quick test_zipf_uniform_when_zero_exponent;
    Alcotest.test_case "zipf: sampling skew" `Quick test_zipf_sampling_skew;
    Alcotest.test_case "zipf: rejects bad args" `Quick test_zipf_rejects;
    Alcotest.test_case "zipf: lookup sequence skew" `Quick test_zipf_lookup_sequence;
    Alcotest.test_case "churn: poisson rates" `Quick test_churn_poisson_rates;
    Alcotest.test_case "churn: rejects bad args" `Quick test_churn_rejects;
    Alcotest.test_case "churn: crash storm" `Quick test_crash_storm;
    Alcotest.test_case "keys: names match the Printf formats" `Quick test_keys_match_printf;
  ]
