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
  let config = { default_config with Config.link_usage_aware = true } in
  let h = H.create_star ~seed:5 ~peers:64 ~config () in
  (* root with capacity 5 accepts children freely; slow peers do not *)
  ignore (H.join h ~host:0 ~role:Peer.T_peer ~link_capacity:5.0 () : Peer.t);
  H.run h;
  for host = 1 to 20 do
    ignore (H.join h ~host ~role:Peer.S_peer ~link_capacity:0.5 () : Peer.t);
    H.run h
  done;
  ok_invariants h;
  (* slow peers (capacity 0.5) accept no children at all: one child
     would put degree/capacity at 2 or more, over the bound of 1; so
     everyone hangs off the root up to delta, and the rest… must still
     attach somewhere (fallback), but slow inner nodes never exceed
     delta *)
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

let test_stuck_leave_queues_no_events () =
  (* an s-peer whose join is abandoned (every t-peer crashes while its
     request is in flight) is never wired: its leave waits in its own
     queue for good, with no timer re-armed *)
  let h = H.create_star ~seed:9 ~peers:16 () in
  let roots = List.init 3 (fun i -> H.join h ~host:i ~p_id:(i * 1_000_000) ~role:Peer.T_peer ()) in
  H.run h;
  let s = H.join h ~host:5 ~role:Peer.S_peer () in
  List.iter (H.crash h) roots;
  let left = ref false in
  H.leave h s ~on_done:(fun () -> left := true) ();
  H.run_for h 5_000.0;
  checkb "join never wired" true (Option.is_none s.Peer.t_home);
  checkb "leave never completed" false !left;
  checki "leave waits in the peer's queue" 1 (List.length s.Peer.join_queue);
  checki "no events queued" 0 (P2p_sim.Engine.pending (H.engine h));
  (* the final audit reports both changes still open *)
  let open_change what =
    List.exists
      (fun (v : P2p_audit.Checks.violation) ->
        v.check = "membership"
        && v.severity = P2p_audit.Checks.Error
        && v.detail = Printf.sprintf "1 %s(s) begun through Hybrid never ended" what)
      (P2p_audit.Checks.violations (P2p_audit.Checks.final (H.world h)))
  in
  checkb "final reports the open join" true (open_change "join");
  checkb "final reports the open leave" true (open_change "leave")

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

(* p2psim rejects a peer or item count below one, a trace capacity below
   one, a sample rate outside [0,1], a malformed scenario script, an
   invalid Config value and a flag combination that cannot run with a
   usage error (cmdliner's exit 124) naming the option, before building
   anything, instead of dying on an uncaught exception or failing after
   the run. *)
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
      ("run --peers 50 --items 0", "--items");
      ("compare --items 0", "--items");
      ("audit --items 0", "--items");
      ("run --trace-cap 0", "--trace-cap");
      ("scenario --trace-cap 0", "--trace-cap");
      ("audit --trace-sample 2", "--trace-sample");
      ("run --trace-sample 2", "--trace-sample");
      ("serve --peers 0", "--peers");
      ("top --peers 0", "--peers");
      ("cluster-report --peers 0", "--peers");
      ("serve --trace-sample 2", "--trace-sample");
      ("run --slo lookup", "--slo");
      ("serve --slo lookup:p99", "--slo");
      ("cluster-report --slo bogus", "--slo");
      ("scenario --script join:abc:0.7", "--script");
      ("scenario --script crash:2", "--script");
      ("scenario --script join:10:1.5", "--script");
      ("scenario --script insert:-5", "--script");
      ("scenario --script bogus", "--script");
      ("scenario --peers 100 --script join:150:0.8", "--script");
      ("scenario --peers 100 --script 'join:100:0.8 settle join:18:0.8'", "--peers");
      ("run --anti-entropy 100", "--anti-entropy");
      ("run --delta 1", "--delta");
      ("run --timeline-interval 0", "--timeline-interval");
      ("run --peers 50 --audit-interval 0", "--audit-interval");
      ("scenario --audit-interval=-1", "--audit-interval");
      ("audit --peers 300 --inject bogus", "--inject");
      ("audit --inject replication", "--inject");
    ]

(* The host check is exact: a script that joins every host of the
   underlay (117 at --peers 100) still runs. *)
let test_cli_scenario_fills_underlay () =
  let code =
    Sys.command
      "../bin/p2psim.exe scenario --peers 100 --script 'join:110:0.8 settle join:7:0.5' \
       > /dev/null 2>&1"
  in
  checki "all 117 hosts joined" 0 code

(* Observing a run does not change what it audits: the same audited run
   with and without a timeline sampler prints the same audit line. *)
let test_cli_timeline_keeps_audit () =
  let audit_line extra =
    let out = Filename.temp_file "p2psim" ".out" in
    let code =
      Sys.command
        (Printf.sprintf
           "../bin/p2psim.exe run --peers 200 --ps 0.7 --items 300 --lookups 300 \
            --replication 2 --anti-entropy 5000 --audit-interval 300 %s > %s 2>&1"
           extra (Filename.quote out))
    in
    let lines = In_channel.with_open_text out In_channel.input_all |> String.split_on_char '\n' in
    Sys.remove out;
    checki (extra ^ ": exit") 0 code;
    List.find (fun l -> String.starts_with ~prefix:"audit:" l) lines
  in
  let timeline = Filename.temp_file "p2psim" ".jsonl" in
  let sampled =
    audit_line
      (Printf.sprintf "--timeline-out %s --timeline-interval 250" (Filename.quote timeline))
  in
  Sys.remove timeline;
  Alcotest.(check string) "same audit line" (audit_line "") sampled

(* [run --profile] with an auditor prints one row per check after the
   engine's rows; without --profile, or without an auditor, no row. *)
let test_cli_profile_audit_rows () =
  let rows flags =
    let out = Filename.temp_file "p2psim" ".out" in
    let code =
      Sys.command
        (Printf.sprintf "../bin/p2psim.exe run --peers 100 --items 100 --lookups 100 %s > %s 2>&1"
           flags (Filename.quote out))
    in
    let lines = In_channel.with_open_text out In_channel.input_all |> String.split_on_char '\n' in
    Sys.remove out;
    checki (flags ^ ": exit") 0 code;
    List.filter (fun l -> String.starts_with ~prefix:"  audit " l) lines
  in
  let profiled = rows "--profile --audit-interval 300" in
  checki "one row per check" (List.length P2p_audit.Checks.all) (List.length profiled);
  checkb "rows name the checks" true
    (List.for_all2
       (fun row c ->
         String.starts_with ~prefix:("  audit " ^ P2p_audit.Checks.check_name c) row)
       profiled P2p_audit.Checks.all);
  checki "no rows without --profile" 0 (List.length (rows "--audit-interval 300"));
  checki "no rows without an auditor" 0 (List.length (rows "--profile"))

(* [scenario --profile] prints what [run --profile] prints: the engine
   line, its label rows and, with an auditor, one row per check. *)
let test_cli_scenario_profile () =
  let out = Filename.temp_file "p2psim" ".out" in
  let code =
    Sys.command
      (Printf.sprintf
         "../bin/p2psim.exe scenario --peers 100 --replication 2 --audit-interval 2000 \
          --profile --script 'join:100:0.8 insert:100 settle lookup:50 settle' > %s 2>&1"
         (Filename.quote out))
  in
  let lines = In_channel.with_open_text out In_channel.input_all |> String.split_on_char '\n' in
  Sys.remove out;
  checki "exit" 0 code;
  checkb "engine line" true (List.exists (String.starts_with ~prefix:"engine: ") lines);
  let rows = List.filter (String.starts_with ~prefix:"  audit ") lines in
  checki "one row per check" (List.length P2p_audit.Checks.all) (List.length rows);
  checkb "rows name the checks" true
    (List.for_all2
       (fun row c ->
         String.starts_with ~prefix:("  audit " ^ P2p_audit.Checks.check_name c) row)
       rows P2p_audit.Checks.all)

(* With replication on, [scenario --profile] adds one heal row: passes,
   CPU, keys re-examined and full censuses.  Only the first pass takes a
   census: at seed 4 the script's [leave] is a t-peer holding replica
   copies, which the key log carries to the second pass.  Without
   --profile there is no row, so the default output stays as it was. *)
let test_cli_heal_profile_row () =
  let heal_rows flags =
    let out = Filename.temp_file "p2psim" ".out" in
    let code =
      Sys.command
        (Printf.sprintf
           "../bin/p2psim.exe scenario --seed 4 --peers 60 --replication 2 %s \
            --script 'join:60:0.8 insert:200 settle crash repair crash leave repair settle' \
            > %s 2>&1"
           flags (Filename.quote out))
    in
    let lines = In_channel.with_open_text out In_channel.input_all |> String.split_on_char '\n' in
    Sys.remove out;
    checki (flags ^ ": exit") 0 code;
    List.filter (String.starts_with ~prefix:"  heal ") lines
  in
  (match heal_rows "--profile" with
   | [ row ] ->
     let words = String.split_on_char ' ' row |> List.filter (( <> ) "") in
     checkb (row ^ ": two passes") true (List.nth words 1 = "2" && List.nth words 2 = "passes");
     checkb (row ^ ": one census, the first pass") true
       (String.ends_with ~suffix:", 1 full censuses)" row)
   | rows -> Alcotest.failf "%d heal rows under --profile" (List.length rows));
  checki "no heal row without --profile" 0 (List.length (heal_rows ""))

(* A trace that exists only for an SLO gate samples 1% of ops; an
   explicit --trace-sample wins. *)
let test_cli_forced_trace_rate () =
  let rate flags =
    let metrics = Filename.temp_file "p2psim" ".json" in
    let code =
      Sys.command
        (Printf.sprintf
           "../bin/p2psim.exe run --peers 60 --items 60 --lookups 60 --slo 'lookup:p99<=1e9' \
            %s --metrics-out %s > /dev/null 2>&1"
           flags (Filename.quote metrics))
    in
    let json = In_channel.with_open_text metrics In_channel.input_all in
    Sys.remove metrics;
    checki (flags ^ ": exit") 0 code;
    match Result.bind (P2p_obs.Json.parse json) P2p_obs.Registry.Doc.of_json with
    | Ok doc -> (
      match P2p_obs.Registry.Doc.find doc ~subsystem:"trace" ~name:"sample_rate" with
      | Some (P2p_obs.Registry.Doc.Gauge r) -> r
      | _ -> Alcotest.fail "no trace/sample_rate gauge")
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (float 0.0)) "forced trace samples 1%" 0.01 (rate "");
  Alcotest.(check (float 0.0)) "explicit rate kept" 0.5 (rate "--trace-sample 0.5");
  Alcotest.(check (float 0.0)) "explicit full rate kept" 1.0 (rate "--trace-sample 1")

(* The gc gauges a run ends with are current: this run allocates less
   than one minor heap, so the runtime has not collected by its end,
   and a figure sampled only at collections would read 0. *)
let test_cli_gc_gauges_current () =
  let metrics = Filename.temp_file "p2psim" ".json" in
  let code =
    Sys.command
      (Printf.sprintf
         "../bin/p2psim.exe run --peers 100 --items 50 --lookups 50 --metrics-out %s \
          > /dev/null 2>&1"
         (Filename.quote metrics))
  in
  let json = In_channel.with_open_text metrics In_channel.input_all in
  Sys.remove metrics;
  checki "exit" 0 code;
  match Result.bind (P2p_obs.Json.parse json) P2p_obs.Registry.Doc.of_json with
  | Ok doc ->
    List.iter
      (fun name ->
        match P2p_obs.Registry.Doc.find doc ~subsystem:"gc" ~name with
        | Some (P2p_obs.Registry.Doc.Gauge v) -> checkb (name ^ " > 0") true (v > 0.0)
        | _ -> Alcotest.failf "no gc/%s gauge" name)
      [ "allocated_mb_total"; "heap_mb" ]
  | Error e -> Alcotest.fail e

(* compare's pure-Chord line is the hybrid at p_s 0: it runs and finds
   every item. *)
let test_cli_compare_pure_ring () =
  let out = Filename.temp_file "p2psim" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "../bin/p2psim.exe compare --peers 100 --items 200 --lookups 200 > %s 2>&1"
         (Filename.quote out))
  in
  let lines = In_channel.with_open_text out In_channel.input_all |> String.split_on_char '\n' in
  Sys.remove out;
  checki "exit" 0 code;
  match List.find_opt (String.starts_with ~prefix:"pure Chord") lines with
  | None -> Alcotest.fail "no pure Chord line"
  | Some line ->
    Alcotest.(check string) "pure Chord failure" "0.0000"
      (Scanf.sscanf line "pure Chord (ps=0) failure %s" Fun.id)

(* The audit command's exit code is its verdict: every injected fault
   class fails it, a clean run passes. *)
let test_cli_audit_inject_exit_codes () =
  List.iter
    (fun (inject, expected) ->
      let code =
        Sys.command
          (Printf.sprintf "../bin/p2psim.exe audit --peers 100 --inject %s > /dev/null 2>&1"
             inject)
      in
      checki ("--inject " ^ inject) expected code)
    [ ("none", 0); ("degree", 1); ("ring", 1); ("placement", 1) ]

(* [report] reads one [serve] scrape file as the metrics document it
   wraps: the same text as the bare document, exit 0. *)
let test_cli_report_single_scrape () =
  let h, _ = star_system ~seed:9 ~n:40 ~ps:0.7 () in
  let keys = insert_items h ~count:20 in
  List.iter
    (fun key -> ignore (lookup_sync h ~from:(H.random_peer h) ~key () : Data_ops.lookup_outcome))
    keys;
  let reg = Metrics.registry (H.metrics h) in
  let bare = Filename.temp_file "p2psim" ".json"
  and scrape = Filename.temp_file "p2psim" ".json" in
  P2p_obs.Export.write_metrics ~path:bare reg;
  P2p_obs.Export.write_file ~path:scrape
    (P2p_obs.Scrape.to_string
       {
         P2p_obs.Scrape.node = 0;
         at = 0.0;
         uptime_ms = 0.0;
         ready = true;
         p_id = 0;
         succ = 0;
         pred = 0;
         store = H.total_items h;
         violations = 0;
         metrics = P2p_obs.Registry.doc reg;
         trace = [];
       });
  let report path =
    let out = Filename.temp_file "p2psim" ".out" in
    let code =
      Sys.command
        (Printf.sprintf "../bin/p2psim.exe report %s > %s 2>&1" (Filename.quote path)
           (Filename.quote out))
    in
    let text = In_channel.with_open_text out In_channel.input_all in
    List.iter Sys.remove [ out; path ];
    (code, text)
  in
  let bare_code, bare_text = report bare in
  let scrape_code, scrape_text = report scrape in
  checki "bare document renders" 0 bare_code;
  checki "scrape file renders" 0 scrape_code;
  Alcotest.(check string) "same report" bare_text scrape_text

(* The bench harness runs only what it was asked for: a misspelt flag,
   a flag without its value or a second command is a usage error (exit
   2) before anything runs, and --slo fails closed both on a violation
   and on a command that measures no lookup latency. *)
let test_cli_bench_arguments () =
  List.iter
    (fun (args, expected) ->
      let code =
        Sys.command (Printf.sprintf "../bench/main.exe %s > /dev/null 2>&1" args)
      in
      checki args expected code)
    [
      ("fig3a", 0);
      ("fig3a --smok", 2);
      ("fig3a --slo", 2);
      ("fig3a fig3b", 2);
      ("fig3a --slo 'lookup:p99<=40'", 1);
      ("ablate-bt --slo 'lookup:p99<=0.001'", 1);
    ]

let suite =
  [
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "invalid config rejected at create" `Quick
      test_invalid_config_rejected_at_create;
    Alcotest.test_case "two-peer system" `Quick test_two_peer_system_operates;
    Alcotest.test_case "single peer self-lookup" `Quick test_single_peer_self_lookup;
    Alcotest.test_case "bypass shortcut skips ring" `Quick test_bypass_shortcut_skips_ring;
    Alcotest.test_case "link-usage-aware tree" `Quick test_link_usage_aware_tree;
    Alcotest.test_case "leave with pending joins" `Quick test_leave_during_pending_join_queue;
    Alcotest.test_case "stuck leave queues no events" `Quick
      test_stuck_leave_queues_no_events;
    Alcotest.test_case "crash during lookup" `Quick test_crash_during_lookup_times_out;
    Alcotest.test_case "run_for partial progress" `Quick test_run_for_partial_progress;
    Alcotest.test_case "empty distribution" `Quick test_zero_items_distribution;
    Alcotest.test_case "message counts monotone" `Quick test_metrics_message_counts_monotone;
    Alcotest.test_case "CLI rejects non-positive --peers" `Quick
      test_cli_rejects_non_positive_peers;
    Alcotest.test_case "CLI scenario joins every host" `Quick
      test_cli_scenario_fills_underlay;
    Alcotest.test_case "CLI audit --inject exit codes" `Quick
      test_cli_audit_inject_exit_codes;
    Alcotest.test_case "CLI timeline keeps the audit" `Quick test_cli_timeline_keeps_audit;
    Alcotest.test_case "CLI profile rows per audit check" `Quick test_cli_profile_audit_rows;
    Alcotest.test_case "CLI scenario profile rows" `Quick test_cli_scenario_profile;
    Alcotest.test_case "CLI scenario profile heal row" `Quick test_cli_heal_profile_row;
    Alcotest.test_case "CLI forced trace samples 1%" `Quick test_cli_forced_trace_rate;
    Alcotest.test_case "CLI gc gauges current at the end" `Quick test_cli_gc_gauges_current;
    Alcotest.test_case "CLI compare runs the pure ring" `Quick test_cli_compare_pure_ring;
    Alcotest.test_case "CLI report reads one serve scrape" `Quick
      test_cli_report_single_scrape;
    Alcotest.test_case "CLI bench rejects bad arguments" `Quick test_cli_bench_arguments;
  ]
