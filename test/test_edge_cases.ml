(* Edge cases across the stack: configuration validation, degenerate
   system sizes, bypass shortcut behaviour, link-usage-aware trees, and
   timing-sensitive paths not covered by the main suites. *)

open Helpers
module Metrics = P2p_net.Metrics
module Rng = P2p_sim.Rng
module Id_space = P2p_hashspace.Id_space

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_config_validation () =
  let bad field config = checkb field true (Result.is_error (Config.validate config)) in
  bad "delta" { default_config with Config.delta = 1 };
  bad "ttl" { default_config with Config.default_ttl = -1 };
  bad "hello period" { default_config with Config.hello_period = 0.0 };
  bad "hello timeout < period"
    { default_config with Config.hello_period = 10.0; hello_timeout = 5.0 };
  bad "lookup timeout" { default_config with Config.lookup_timeout = 0.0 };
  bad "bypass lifetime" { default_config with Config.bypass_lifetime = 0.0 };
  bad "transmission" { default_config with Config.transmission_ms = -1.0 };
  bad "reflood" { default_config with Config.reflood_attempts = -1 };
  bad "cache capacity" { default_config with Config.cache_capacity = -1 };
  checkb "default valid" true (Result.is_ok (Config.validate default_config))

let test_invalid_config_rejected_at_create () =
  let config = { default_config with Config.delta = 1 } in
  Alcotest.check_raises "create rejects"
    (Invalid_argument "World.create: delta must be >= 2") (fun () ->
      ignore (H.create_star ~seed:1 ~peers:4 ~config () : H.t))

let test_bad_s_fraction_rejected () =
  Alcotest.check_raises "s_fraction" (Invalid_argument "Hybrid.create: s_fraction")
    (fun () -> ignore (H.create_star ~seed:1 ~peers:4 ~s_fraction:1.5 () : H.t))

let test_two_peer_system_operates () =
  let h = H.create_star ~seed:2 ~peers:8 () in
  let a = H.join h ~host:0 () in
  H.run h;
  let b = H.join h ~host:1 ~role:Peer.S_peer () in
  H.run h;
  ok_invariants h;
  H.insert h ~from:b ~key:"solo" ~value:"v" ();
  H.run h;
  let r = lookup_sync h ~from:a ~key:"solo" () in
  checkb "found in two-peer system" true (found r)

let test_single_peer_self_lookup () =
  let h = H.create_star ~seed:3 ~peers:4 () in
  let a = H.join h ~host:0 () in
  H.run h;
  H.insert h ~from:a ~key:"mine" ~value:"v" ();
  H.run h;
  let r = lookup_sync h ~from:a ~key:"mine" () in
  checkb "self-resolves" true (found r)

let test_bypass_shortcut_skips_ring () =
  let config =
    { default_config with Config.bypass_enabled = true; bypass_lifetime = 1e12 }
  in
  let h, _ = star_system ~config ~seed:4 ~n:120 ~ps:0.5 () in
  ignore (insert_items h ~count:60 : string list);
  let p = H.random_peer h in
  (* pick a remote key so the first lookup crosses the ring *)
  let home = Option.get p.Peer.t_home in
  let key =
    List.find
      (fun key -> not (Peer.covers home (P2p_hashspace.Key_hash.of_string key)))
      (List.init 60 (Printf.sprintf "item-%05d"))
  in
  ignore (lookup_sync h ~from:p ~key () : Data_ops.lookup_outcome);
  let before = Metrics.connum (H.metrics h) in
  (match lookup_sync h ~from:p ~key () with
   | Data_ops.Found _ -> ()
   | Data_ops.Timed_out -> Alcotest.fail "repeat lookup failed");
  let contacts = Metrics.connum (H.metrics h) - before in
  (* with a bypass link (or cached holder knowledge) the repeat lookup
     avoids the ring walk almost entirely *)
  checkb (Printf.sprintf "repeat lookup cheap (%d contacts)" contacts) true (contacts <= 8)

let test_link_usage_aware_tree () =
  let config =
    { default_config with
      Config.link_usage_aware = true;
      link_usage_threshold = 0.5;
    }
  in
  let h = H.create_star ~seed:5 ~peers:64 ~config () in
  (* root with capacity 10 accepts children freely; slow peers do not *)
  ignore (H.join h ~host:0 ~role:Peer.T_peer ~link_capacity:10.0 () : Peer.t);
  H.run h;
  for host = 1 to 20 do
    ignore (H.join h ~host ~role:Peer.S_peer ~link_capacity:1.0 () : Peer.t);
    H.run h
  done;
  ok_invariants h;
  (* slow peers (capacity 1, threshold 0.5) accept no children at all:
     degree/capacity would exceed 0.5; so everyone hangs off the root up
     to delta, and the rest… must still attach somewhere (fallback), but
     slow inner nodes never exceed delta *)
  List.iter
    (fun p ->
      if Peer.is_s_peer p then
        checkb "degree bounded" true (Peer.tree_degree p <= config.Config.delta))
    (H.peers h)

let test_leave_during_pending_join_queue () =
  (* a t-peer with queued joins refuses to leave until they drain *)
  let h = H.create_star ~seed:6 ~peers:32 () in
  let a = H.join h ~host:0 ~p_id:0 () in
  H.run h;
  (* several concurrent joins into a's segment, then an immediate leave *)
  let joiners =
    List.init 4 (fun i -> H.join h ~host:(1 + i) ~p_id:((i + 1) * 1000) ~role:Peer.T_peer ())
  in
  let left = ref false in
  H.leave h a ~on_done:(fun () -> left := true) ();
  H.run h;
  checkb "leave eventually completed" true !left;
  checki "joins all survived" 4 (H.peer_count h);
  List.iter (fun p -> checkb "joiner alive" true p.Peer.alive) joiners;
  ok_invariants h

let test_crash_during_lookup_times_out () =
  let config = { default_config with Config.lookup_timeout = 500.0 } in
  let h, _ = star_system ~config ~seed:7 ~n:60 ~ps:0.5 () in
  ignore (insert_items h ~count:30 : string list);
  let p = H.random_peer h in
  let got = ref None in
  H.lookup h ~from:p ~key:"item-00004" ~on_result:(fun r -> got := Some r) ();
  (* kill every other peer before the lookup can progress *)
  List.iter (fun q -> if q != p then H.crash h q) (H.peers h);
  H.run h;
  (match !got with
   | Some Data_ops.Timed_out | Some (Data_ops.Found _) -> ()
   | None -> Alcotest.fail "lookup never resolved");
  checkb "outcome delivered exactly once" true (!got <> None)

let test_run_for_partial_progress () =
  let h = H.create_star ~seed:8 ~peers:16 ~latency:10.0 () in
  ignore (H.join h ~host:0 () : Peer.t);
  H.run h;
  (* an s-join takes >= 2 messages x 20ms; run_for 15ms must not finish it *)
  ignore (H.join h ~host:1 ~role:Peer.S_peer () : Peer.t);
  H.run_for h 15.0;
  checki "join still in flight" 1 (H.peer_count h);
  H.run h;
  checki "join completed" 2 (H.peer_count h)

let test_zero_items_distribution () =
  let h, _ = star_system ~seed:9 ~n:30 ~ps:0.5 () in
  let dist = H.data_distribution h in
  checki "all peers at zero" 30 (P2p_stats.Histogram.count dist 0);
  checki "total items" 0 (H.total_items h)

let test_metrics_message_counts_monotone () =
  let h, _ = star_system ~seed:10 ~n:40 ~ps:0.5 () in
  let m0 = Metrics.messages (H.metrics h) in
  ignore (insert_items h ~count:10 : string list);
  let m1 = Metrics.messages (H.metrics h) in
  checkb "inserts send messages" true (m1 > m0);
  ignore (lookup_sync h ~from:(H.random_peer h) ~key:"item-00000" () : Data_ops.lookup_outcome);
  checkb "lookups send messages" true (Metrics.messages (H.metrics h) > m1)

(* p2psim rejects a peer count below one, a trace capacity below one and
   a sample rate outside [0,1] with a usage error (cmdliner's exit 124)
   naming the option, instead of dying on an uncaught exception. *)
let test_cli_rejects_non_positive_peers () =
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (args, option) ->
      let err = Filename.temp_file "p2psim" ".err" in
      let code =
        Sys.command
          (Printf.sprintf "../bin/p2psim.exe %s > /dev/null 2> %s" args (Filename.quote err))
      in
      let msg = In_channel.with_open_text err In_channel.input_all in
      Sys.remove err;
      checki (args ^ ": usage error") 124 code;
      checkb (args ^ ": no uncaught exception") false (contains msg "exception");
      checkb (args ^ ": names the option") true (contains msg option))
    [
      ("run --peers 0", "--peers");
      ("churn --peers 0", "--peers");
      ("compare --peers 0", "--peers");
      ("audit --peers 0", "--peers");
      ("scenario --peers 0", "--peers");
      ("run --peers=-3", "--peers");
      ("run --trace-cap 0", "--trace-cap");
      ("scenario --trace-cap 0", "--trace-cap");
      ("audit --trace-sample 2", "--trace-sample");
      ("run --trace-sample 2", "--trace-sample");
    ]

let suite =
  [
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "invalid config rejected at create" `Quick
      test_invalid_config_rejected_at_create;
    Alcotest.test_case "bad s_fraction rejected" `Quick test_bad_s_fraction_rejected;
    Alcotest.test_case "two-peer system" `Quick test_two_peer_system_operates;
    Alcotest.test_case "single peer self-lookup" `Quick test_single_peer_self_lookup;
    Alcotest.test_case "bypass shortcut skips ring" `Quick test_bypass_shortcut_skips_ring;
    Alcotest.test_case "link-usage-aware tree" `Quick test_link_usage_aware_tree;
    Alcotest.test_case "leave with pending joins" `Quick test_leave_during_pending_join_queue;
    Alcotest.test_case "crash during lookup" `Quick test_crash_during_lookup_times_out;
    Alcotest.test_case "run_for partial progress" `Quick test_run_for_partial_progress;
    Alcotest.test_case "empty distribution" `Quick test_zero_items_distribution;
    Alcotest.test_case "message counts monotone" `Quick test_metrics_message_counts_monotone;
    Alcotest.test_case "CLI rejects non-positive --peers" `Quick
      test_cli_rejects_non_positive_peers;
  ]
