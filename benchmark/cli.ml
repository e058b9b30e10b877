(* One untraced run of a simulator workload through the p2psim binary:
   phase times from the timestamps of the lines the CLI flushes, counts
   from its --metrics-out file, peak memory from /proc. *)

module Json = P2p_obs.Json
module W = Workloads

type sample = {
  setup_s : float;
  ops_per_s : float;
  lookup_p50_ms : float;  (** simulated network time *)
  lookup_p99_ms : float;
  connum_per_lookup : float;
  peak_rss_mb : float;
  attempted : int;
  failed : int;
  counts : (string * int) list;  (** deterministic for a seed *)
  wall_s : float;  (** wall time of the phases a traced run also times *)
}

let check_exit what (r : Proc.result) =
  match r.Proc.status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Check.fail "CLI exit code: %s exited %d" what n
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Check.fail "CLI exit code: %s killed by signal %d" what s

let line (r : Proc.result) prefix =
  match List.find_opt (fun (_, l) -> String.starts_with ~prefix l) r.Proc.lines with
  | Some x -> x
  | None -> Check.fail "CLI output: no line starting %S" prefix

let scan (r : Proc.result) prefix fmt k =
  let _, l = line r prefix in
  try Scanf.sscanf l fmt k with Scanf.Scan_failure _ | End_of_file | Failure _ ->
    Check.fail "CLI output: cannot parse %S" l

let require_invariants r =
  match line r "invariants:" with
  | _, "invariants: OK" -> ()
  | _, l -> Check.fail "invariants: OK (got %S)" l

let metrics_doc path =
  match Json.parse (P2p_obs.Export.read_file path) with
  | Ok doc -> doc
  | Error e -> Check.fail "metrics-out %s unreadable: %s" path e
  | exception Sys_error e -> Check.fail "metrics-out missing: %s" e

let num doc path =
  match
    Option.bind
      (List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some doc) path)
      Json.to_float
  with
  | Some v -> v
  | None -> Check.fail "metrics-out lacks %s" (String.concat "/" path)

let counter doc sub name = int_of_float (num doc [ sub; name; "value" ])

let mb kb = float_of_int kb /. 1024.0

let run ~p2psim ~dir ~seed (s : W.run_spec) =
  let metrics_out = Filename.concat dir "run-metrics.json" in
  let r = Proc.run p2psim (W.run_args ~seed ~metrics_out s) in
  check_exit "p2psim run" r;
  require_invariants r;
  let t_system, _ = line r "system:" in
  let t_messages, _ = line r "messages:" in
  let stored = scan r "inserted " "inserted %d items" Fun.id in
  let doc = metrics_doc metrics_out in
  let c = counter doc in
  let issued = c "data_ops" "lookups_issued" in
  let failed = c "data_ops" "lookups_failed" + max 0 (s.W.items - stored) in
  {
    setup_s = t_system;
    ops_per_s = float_of_int (s.W.items + issued) /. (t_messages -. t_system);
    lookup_p50_ms = num doc [ "data_ops"; "lookup_latency_ms"; "p50" ];
    lookup_p99_ms = num doc [ "data_ops"; "lookup_latency_ms"; "p99" ];
    connum_per_lookup = float_of_int (c "data_ops" "connum") /. float_of_int issued;
    peak_rss_mb = mb r.Proc.hwm_kb;
    attempted = s.W.items + issued;
    failed;
    counts =
      [ ("messages", c "underlay" "messages");
        ("physical_hops", c "underlay" "physical_hops");
        ("lookups_ok", c "data_ops" "lookups_succeeded");
        ("lookups_failed", c "data_ops" "lookups_failed");
        ("connum", c "data_ops" "connum");
        ("stored_items", stored) ];
    wall_s = t_messages;
  }

(* Set-up is the join-only prefix of the script under the same flags;
   the data phase is the full script's wall minus that. *)
let churn ~p2psim ~dir ~seed (cs : W.churn_spec) =
  let trace_out = Filename.concat dir "churn-trace.jsonl" in
  let metrics_out = Filename.concat dir "churn-metrics.json" in
  let invoke script =
    let r = Proc.run p2psim (W.scenario_args ~seed ~trace_out ~metrics_out cs script) in
    check_exit "p2psim scenario" r;
    require_invariants r;
    r
  in
  let setup = invoke (W.setup_script cs) in
  let r = invoke cs.W.script in
  let joined, crashed = scan r "joined " "joined %d, left %_d, crashed %d" (fun j c -> (j, c)) in
  let inserted = scan r "inserted " "inserted %d items" Fun.id in
  let ok, lfailed = scan r "lookups:" "lookups: %d ok, %d failed" (fun a b -> (a, b)) in
  let final_items = scan r "final:" "final: %_d peers, %d items" Fun.id in
  let ticks, violations =
    scan r "audit:" "audit: %d ticks, %d violations" (fun t v -> (t, v))
  in
  if violations > 0 then Check.fail "audit: %d violations" violations;
  if final_items < inserted then
    Check.fail "assert-no-loss: %d of %d items lost" (inserted - final_items) inserted;
  let doc = metrics_doc metrics_out in
  let c = counter doc in
  let attempted = inserted + ok + lfailed in
  {
    setup_s = setup.Proc.wall;
    ops_per_s = float_of_int attempted /. (r.Proc.wall -. setup.Proc.wall);
    lookup_p50_ms = num doc [ "data_ops"; "lookup_latency_ms"; "p50" ];
    lookup_p99_ms = num doc [ "data_ops"; "lookup_latency_ms"; "p99" ];
    connum_per_lookup =
      float_of_int (c "data_ops" "connum") /. float_of_int (c "data_ops" "lookups_issued");
    peak_rss_mb = mb r.Proc.hwm_kb;
    attempted;
    failed = lfailed;
    counts =
      [ ("messages", c "underlay" "messages");
        ("physical_hops", c "underlay" "physical_hops");
        ("joined", joined); ("crashed", crashed); ("inserted", inserted);
        ("lookups_ok", ok); ("lookups_failed", lfailed);
        ("connum", c "data_ops" "connum");
        ("stored_items", final_items); ("audit_ticks", ticks) ];
    wall_s = r.Proc.wall;
  }
