(* Tests for the lookup accelerators: Bloom filters, attenuated edge
   summaries (flood pruning) and the per-peer result cache.

   The load-bearing property throughout is one-sidedness: every
   accelerator may cost extra messages (false positives, cold caches)
   but must never lose an answer the unaccelerated system would find. *)

open Helpers
module Bloom = Hybrid_p2p.Bloom
module Summaries = Hybrid_p2p.Summaries
module Cache = Hybrid_p2p.Cache
module Checks = P2p_audit.Checks
module Replication = P2p_replication.Manager
module Metrics = P2p_net.Metrics
module Registry = P2p_obs.Registry
module Rng = P2p_sim.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Bloom filter --- *)

let prop_bloom_no_false_negatives =
  QCheck.Test.make ~name:"bloom: added keys are always members" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 200) (string_gen_of_size (Gen.int_range 1 24) Gen.printable))
    (fun keys ->
      let f = Bloom.create ~expected:(max 1 (List.length keys)) ~bits_per_key:8 in
      List.iter (Bloom.add f) keys;
      List.for_all (Bloom.mem f) keys)

let test_bloom_fp_rate () =
  (* At the design point (n = expected, 10 bits/key, ~7 hashes) the
     theoretical false-positive rate is ~0.8%; assert a generous 3%
     ceiling and a near-half fill ratio. *)
  let n = 2_000 in
  let f = Bloom.create ~expected:n ~bits_per_key:10 in
  for i = 1 to n do
    Bloom.add f (Printf.sprintf "present-%06d" i)
  done;
  let probes = 20_000 in
  let fp = ref 0 in
  for i = 1 to probes do
    if Bloom.mem f (Printf.sprintf "absent-%06d" i) then incr fp
  done;
  let rate = float_of_int !fp /. float_of_int probes in
  if rate > 0.03 then
    Alcotest.failf "false-positive rate %.4f above the 3%% ceiling" rate;
  let fill = Bloom.fill_ratio f in
  checkb "fill ratio near 0.5" true (fill > 0.3 && fill < 0.7);
  checki "count tracks adds" n (Bloom.count f)

let test_bloom_rejects () =
  Alcotest.check_raises "bits_per_key must be positive"
    (Invalid_argument "Bloom.create: bits_per_key") (fun () ->
      ignore (Bloom.create ~expected:10 ~bits_per_key:0 : Bloom.t))

(* --- result cache --- *)

let test_cache_ttl_expiry () =
  let c = Cache.create ~capacity:4 in
  Cache.put c ~now:0.0 ~lifetime:10.0 ~key:"k" ~value:"v";
  Alcotest.check (Alcotest.option Alcotest.string) "fresh" (Some "v")
    (Cache.find c ~now:5.0 ~key:"k");
  Alcotest.check (Alcotest.option Alcotest.string) "expired" None
    (Cache.find c ~now:10.5 ~key:"k");
  checki "expired entry dropped on access" 0 (Cache.size c)

let test_cache_eviction_order () =
  (* When full, the entry closest to expiry goes first — regardless of
     insertion order. *)
  let c = Cache.create ~capacity:3 in
  Cache.put c ~now:0.0 ~lifetime:10.0 ~key:"mid" ~value:"1";
  Cache.put c ~now:0.0 ~lifetime:5.0 ~key:"soon" ~value:"2";
  Cache.put c ~now:0.0 ~lifetime:20.0 ~key:"late" ~value:"3";
  Cache.put c ~now:1.0 ~lifetime:30.0 ~key:"new" ~value:"4";
  checkb "soonest-to-expire evicted" true (Cache.find c ~now:1.0 ~key:"soon" = None);
  checkb "mid kept" true (Cache.find c ~now:1.0 ~key:"mid" = Some "1");
  checkb "late kept" true (Cache.find c ~now:1.0 ~key:"late" = Some "3");
  checkb "new kept" true (Cache.find c ~now:1.0 ~key:"new" = Some "4")

let test_cache_refresh_moves_expiry () =
  (* Refreshing an entry must also move it back in the eviction order:
     the stale heap pair may not evict the refreshed key. *)
  let c = Cache.create ~capacity:2 in
  Cache.put c ~now:0.0 ~lifetime:5.0 ~key:"a" ~value:"v1";
  Cache.put c ~now:0.0 ~lifetime:50.0 ~key:"b" ~value:"v";
  Cache.put c ~now:1.0 ~lifetime:100.0 ~key:"a" ~value:"v2";
  Cache.put c ~now:2.0 ~lifetime:100.0 ~key:"c" ~value:"v";
  checkb "b (soonest) evicted" true (Cache.find c ~now:2.0 ~key:"b" = None);
  checkb "refreshed a survives" true (Cache.find c ~now:2.0 ~key:"a" = Some "v2");
  checki "at capacity" 2 (Cache.size c)

let test_cache_many_churns_stay_bounded () =
  (* Heap compaction: refreshing the same small key set thousands of
     times must not grow internal state without bound (indirectly: stays
     correct and at capacity). *)
  let c = Cache.create ~capacity:8 in
  for i = 1 to 10_000 do
    Cache.put c ~now:(float_of_int i) ~lifetime:100.0
      ~key:(Printf.sprintf "k%d" (i mod 16))
      ~value:"v"
  done;
  checki "at capacity" 8 (Cache.size c)

(* --- summaries: pruned floods keep full recall --- *)

let accel_config = { default_config with Config.bloom_bits_per_key = 8 }

let counter_value h ~subsystem ~name =
  Registry.counter_value
    (Registry.counter (Metrics.registry (H.metrics h)) ~subsystem ~name)

let recall_all h keys =
  List.fold_left
    (fun acc key ->
      if found (lookup_sync h ~from:(H.random_peer h) ~key ()) then acc + 1 else acc)
    0 keys

let test_pruned_recall_equals_full () =
  (* Same seed, same workload, with and without summaries: the pruned
     system must answer every lookup the full-flood system answers,
     while actually pruning. *)
  let build config =
    let h, _ = star_system ~config ~seed:77 ~n:72 ~ps:0.75 () in
    let keys = insert_items h ~count:300 in
    (h, keys)
  in
  let h_full, keys_full = build default_config in
  let h_pruned, keys_pruned = build accel_config in
  Alcotest.check (Alcotest.list Alcotest.string) "same corpus" keys_full keys_pruned;
  let full = recall_all h_full keys_full in
  let pruned = recall_all h_pruned keys_pruned in
  checki "pruned recall = full recall" full pruned;
  checki "full-flood recall is total" (List.length keys_full) full;
  checkb "pruning actually happened" true
    (counter_value h_pruned ~subsystem:"s_network" ~name:"flood_pruned" > 0);
  checkb "full floods never prune" true
    (counter_value h_full ~subsystem:"s_network" ~name:"flood_pruned" = 0);
  ok_invariants h_pruned

let run_bloom_coverage h =
  match Checks.find "bloom_coverage" with
  | None -> Alcotest.fail "bloom_coverage check missing from catalogue"
  | Some c -> Checks.run c (H.world h)

let test_no_false_negatives_under_churn () =
  (* Joins, graceful leaves, crashes and a replication heal; after each
     settle, the coverage audit must find every stored key visible
     through its root path, and live lookups must still resolve. *)
  let config = { accel_config with Config.replication_factor = 2 } in
  let h, members = star_system ~config ~seed:31 ~n:80 ~ps:0.7 () in
  let members = Array.to_list members in
  let m = Replication.install (H.world h) in
  let keys = insert_items h ~count:400 in
  let assert_clean label =
    let status = run_bloom_coverage h in
    (match status.Checks.violations with
     | [] -> ()
     | v :: _ ->
       Alcotest.failf "%s: %s" label
         (Format.asprintf "%a" Checks.pp_violation v))
  in
  assert_clean "after inserts";
  (* graceful leaves: a couple of s-peers (their items walk up a hop) *)
  let rng = Rng.create 5 in
  let s_peers = List.filter (fun p -> not (Peer.is_t_peer p)) members in
  List.iteri
    (fun i p -> if i < 3 && p.Peer.alive then H.leave h p ())
    s_peers;
  H.run h;
  assert_clean "after s-peer leaves";
  (* joins: new peers attach to existing trees *)
  ignore (H.grow h ~count:8 ~s_fraction:0.8 : Peer.t array);
  assert_clean "after joins";
  (* crashes incl. a t-peer, then repair + heal restore the copies *)
  let crash_some ps =
    List.iteri (fun i p -> if i < 2 && p.Peer.alive then H.crash h p) ps
  in
  crash_some (List.filter (fun p -> not (Peer.is_t_peer p) && p.Peer.alive) members);
  (match List.find_opt (fun p -> Peer.is_t_peer p && p.Peer.alive) members with
   | Some t -> H.crash h t
   | None -> ());
  H.repair h;
  Replication.heal m;
  H.run h;
  assert_clean "after crashes + heal";
  (* and the data is genuinely reachable, not just summarized *)
  let sample =
    List.filteri (fun i _ -> i mod 10 = 0) keys
  in
  List.iter
    (fun key ->
      if not (found (lookup_sync h ~from:(H.random_peer h) ~key ())) then
        Alcotest.failf "key %s lost after churn" key)
    sample;
  ignore rng

let suite =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260806 |])
    prop_bloom_no_false_negatives
  :: [
       Alcotest.test_case "bloom: fp rate at design point" `Quick test_bloom_fp_rate;
       Alcotest.test_case "bloom: rejects bad geometry" `Quick test_bloom_rejects;
       Alcotest.test_case "cache: ttl expiry" `Quick test_cache_ttl_expiry;
       Alcotest.test_case "cache: evicts soonest-to-expire" `Quick
         test_cache_eviction_order;
       Alcotest.test_case "cache: refresh moves expiry" `Quick
         test_cache_refresh_moves_expiry;
       Alcotest.test_case "cache: 10k refreshes stay bounded" `Quick
         test_cache_many_churns_stay_bounded;
       Alcotest.test_case "summaries: pruned recall = full recall" `Quick
         test_pruned_recall_equals_full;
       Alcotest.test_case "summaries: no false negatives under churn" `Quick
         test_no_false_negatives_under_churn;
     ]
