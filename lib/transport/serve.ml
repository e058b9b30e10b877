(* [p2psim serve]: fork N worker processes, each running one
   {!Live_node} of a live localhost ring, and drive them from the parent
   acting as the client (node index N on the same transport fabric).

   The parent waits for every worker to report [ready] via
   [Status_request]/[Status] polling, then — in smoke mode — pushes a
   fixed insert/lookup workload through round-robin entry nodes,
   computes recall, scrapes every node mid-run (registry snapshots plus
   retained chrome spans), writes the merged cluster artifacts
   (per-node [scrape-<i>.json], [cluster-metrics.json],
   [cluster-trace.chrome.json]), gates the merged percentiles against
   [--slo] specs and the wire-v2 trace overhead against its 2% budget,
   shuts the ring down with [Shutdown] frames, reaps the children and
   scans their JSONL health dumps for audit violations and decode
   errors.  Exit code 0 means the ring formed, recall was 1.0, the
   dumps are clean, and every observability gate passed; anything else
   is 1.

   Without [--smoke] the ring is left serving until the parent receives
   SIGINT/SIGTERM, which triggers the same clean shutdown.  Workers
   install their own SIGTERM/SIGINT handlers that flag a
   flight-recorder dump, taken from the select loop before the clean
   exit — a killed node leaves forensics, not silence.

   The same scrape machinery is exposed as an {!aggregator} for
   [p2psim top] / [p2psim cluster-report]: an extra client (node index
   [n + 1], a port the scraped nodes learn from the request frame)
   that can poll a serving ring it did not fork. *)

module Json = P2p_obs.Json
module Scrape = P2p_obs.Scrape
module Registry = P2p_obs.Registry
module Export = P2p_obs.Export
module Slo = P2p_obs.Slo

type outcome = {
  ready_nodes : int;
  inserts_ok : int;
  lookups_found : int;
  lookups_total : int;
  recall : float;
  violations : int;
  decode_errors : int;
  scraped : int;  (* nodes that answered the mid-run scrape *)
  slo_ok : bool;
  trace_overhead_pct : float;  (* trace bytes vs untraced bytes-on-wire *)
  exit_code : int;
}

let mkdir_p dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ())

(* --- child ----------------------------------------------------------- *)

let run_child ~node ~n ~port_base ~dump_dir ~epoch ~sample_rate ~sample_seed =
  let t =
    Live_node.create ~dump_dir ~epoch ~sample_rate ~sample_seed ~node ~n
      ~port_base ()
  in
  (* Signals only flag the dump; the run loop takes it between select
     turns, then shuts down cleanly (final health line included). *)
  List.iter
    (fun (signal, name) ->
      try
        Sys.set_signal signal
          (Sys.Signal_handle
             (fun _ -> Live_node.request_flight_dump t ~reason:name))
      with Invalid_argument _ | Sys_error _ -> ())
    [ (Sys.sigterm, "sigterm"); (Sys.sigint, "sigint") ];
  Live_node.run t;
  exit 0

(* --- parent: client over the live fabric ----------------------------- *)

type client = {
  self : int;
  port : int;  (* where this client listens; scrape requests carry it *)
  tr : Live_transport.t;
  replies : (int, Wire.msg) Hashtbl.t;
  statuses : (int, Wire.msg) Hashtbl.t;
  scrapes : (int, int * string) Hashtbl.t;  (* node -> (req, snapshot) *)
  mutable scrape_req : int;  (* next scrape request id *)
}

let make_client ~self ~listen_peers ~port_base =
  let tr = Live_transport.create ~self () in
  for peer = 0 to listen_peers do
    Live_transport.set_peer_addr tr peer
      (Unix.ADDR_INET (Unix.inet_addr_loopback, port_base + peer))
  done;
  let port = port_base + self in
  Live_transport.listen tr (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let c =
    {
      self;
      port;
      tr;
      replies = Hashtbl.create 1024;
      statuses = Hashtbl.create 64;
      scrapes = Hashtbl.create 64;
      scrape_req = 1;
    }
  in
  Live_transport.set_handler tr (fun ~src:_ ~dst:_ msg ->
      match msg with
      | Wire.Client_reply { req; _ } -> Hashtbl.replace c.replies req msg
      | Wire.Status { node; _ } -> Hashtbl.replace c.statuses node msg
      | Wire.Scrape_reply { req; node; snapshot } ->
        Hashtbl.replace c.scrapes node (req, snapshot)
      | _ -> ());
  c

(* Step the client loop until [done_ ()] or the wall-clock deadline. *)
let pump c ~seconds done_ =
  let deadline = Unix.gettimeofday () +. seconds in
  let finished = ref (done_ ()) in
  while (not !finished) && Unix.gettimeofday () < deadline do
    ignore (Live_transport.step ~timeout:0.02 c.tr);
    finished := done_ ()
  done;
  !finished

let wait_ready c ~n ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let req = ref 0 in
  let all_ready () =
    let count = ref 0 in
    Hashtbl.iter
      (fun _ msg ->
        match msg with Wire.Status { ready = true; _ } -> incr count | _ -> ())
      c.statuses;
    !count = n
  in
  let ready = ref (all_ready ()) in
  while (not !ready) && Unix.gettimeofday () < deadline do
    for node = 0 to n - 1 do
      incr req;
      Live_transport.send c.tr ~src:c.self ~dst:node
        (Wire.Status_request { req = !req })
    done;
    ignore (pump c ~seconds:0.25 all_ready);
    ready := all_ready ()
  done;
  let count = ref 0 in
  Hashtbl.iter
    (fun _ msg ->
      match msg with Wire.Status { ready = true; _ } -> incr count | _ -> ())
    c.statuses;
  (!ready, !count)

(* --- scraping --------------------------------------------------------- *)

(* One scrape round: ask all [n] nodes, wait until everyone answered (or
   the deadline), parse what came back.  Replies from earlier rounds are
   recognised by request id and ignored. *)
let scrape_round c ~n ~spans ~seconds =
  let lo = c.scrape_req in
  c.scrape_req <- c.scrape_req + n;
  for node = 0 to n - 1 do
    Live_transport.send c.tr ~src:c.self ~dst:node
      (Wire.Scrape_request { req = lo + node; port = c.port; spans })
  done;
  let current () =
    Hashtbl.fold
      (fun node (req, snap) acc ->
        if req >= lo then (node, snap) :: acc else acc)
      c.scrapes []
  in
  ignore (pump c ~seconds (fun () -> List.length (current ()) = n));
  let snapshots =
    List.filter_map
      (fun (_, snap) ->
        match Scrape.of_string snap with Ok s -> Some s | Error _ -> None)
      (current ())
  in
  List.sort (fun a b -> compare a.Scrape.node b.Scrape.node) snapshots

(* --- standalone aggregator (p2psim top / cluster-report) -------------- *)

type aggregator = { agg_client : client; agg_n : int }

(* Node index [n + 1]: the orchestrator already holds [n], and ring
   members learn the aggregator's port from the request frame itself. *)
let aggregator ~peers:n ~port_base () =
  let c = make_client ~self:(n + 1) ~listen_peers:(n - 1) ~port_base in
  { agg_client = c; agg_n = n }

let aggregator_scrape a ?(spans = false) ?(timeout = 5.) () =
  scrape_round a.agg_client ~n:a.agg_n ~spans ~seconds:timeout

let aggregator_stop a = Live_transport.stop a.agg_client.tr

(* --- observability gates ---------------------------------------------- *)

(* Trace overhead vs untraced framing, from the merged wire counters:
   [trace_bytes] counts the flags byte and stamped headers, so
   [bytes_sent - trace_bytes] is what the same traffic costs without
   trace plumbing.  Returns those untraced bytes and the overhead in
   percent of them. *)
let trace_overhead merged =
  let value name =
    Registry.counter_value (Registry.counter merged ~subsystem:"wire" ~name)
  in
  let trace_bytes = value "trace_bytes" and bytes_sent = value "bytes_sent" in
  let untraced_bytes = bytes_sent - trace_bytes in
  ( untraced_bytes,
    if untraced_bytes <= 0 then 0.0
    else 100.0 *. float_of_int trace_bytes /. float_of_int untraced_bytes )

(* The cluster rollup [serve --smoke] and [cluster-report] share: merge
   the snapshots, print the per-node table (and, with [report], the
   merged report), write the merged metrics and chrome trace where
   asked, and enforce the SLO specs on the merged registry. *)
let rollup ?(report = false) ?metrics_out ?trace_out ~prefix ~slo snapshots =
  let say line = Printf.printf "%s%s\n%!" prefix line in
  let merged = Scrape.merged_registry snapshots in
  print_string (Scrape.render_table snapshots);
  if report then begin
    print_newline ();
    print_string (P2p_obs.Report.render (Registry.doc merged))
  end;
  Option.iter
    (fun path ->
      Export.write_file ~path (Json.to_string (Registry.to_json merged));
      say ("merged metrics -> " ^ path))
    metrics_out;
  Option.iter
    (fun path ->
      Export.write_file ~path (Json.to_string (Scrape.merged_chrome snapshots));
      say ("merged chrome trace -> " ^ path ^ " (load in ui.perfetto.dev)"))
    trace_out;
  (merged, Slo.enforce merged ~specs:slo ~print:say)

type obs_outcome = {
  obs_scraped : int;
  obs_slo_ok : bool;
  obs_overhead_pct : float;
  obs_overhead_ok : bool;
}

(* Scrape the serving ring, write every artifact, gate SLOs and trace
   overhead.  Runs while the ring is still serving (before shutdown). *)
let observe_cluster c ~n ~dump_dir ~slo ~sample_rate =
  let scrape_started = Unix.gettimeofday () in
  let snapshots = scrape_round c ~n ~spans:true ~seconds:10. in
  let scrape_ms = (Unix.gettimeofday () -. scrape_started) *. 1000.0 in
  List.iter
    (fun s ->
      Export.write_file
        ~path:(Filename.concat dump_dir (Printf.sprintf "scrape-%d.json" s.Scrape.node))
        (Scrape.to_string s))
    snapshots;
  let merged, slo_ok =
    rollup ~prefix:"serve: "
      ~metrics_out:(Filename.concat dump_dir "cluster-metrics.json")
      ~trace_out:(Filename.concat dump_dir "cluster-trace.chrome.json")
      ~slo snapshots
  in
  let untraced_bytes, pct = trace_overhead merged in
  (* the 2% budget is the bench gate for the intended production rate;
     runs traced at higher rates pay for what they asked for, and runs
     too small for the ratio to be signal (bootstrap frames dominate
     under ~100 KiB) are measured but not gated *)
  let overhead_ok =
    sample_rate > 0.0101 || untraced_bytes < 100 * 1024 || pct <= 2.0
  in
  Printf.printf "serve: scraped=%d/%d in %.1fms trace_overhead=%.3f%%%s\n%!"
    (List.length snapshots) n scrape_ms pct
    (if overhead_ok then "" else " (EXCEEDS 2% BUDGET)");
  {
    obs_scraped = List.length snapshots;
    obs_slo_ok = slo_ok;
    obs_overhead_pct = pct;
    obs_overhead_ok = overhead_ok;
  }

(* --- health-dump scan ------------------------------------------------ *)

let scan_dumps ~dump_dir ~n =
  let violations = ref 0 and decode_errors = ref 0 in
  for node = 0 to n - 1 do
    let path = Filename.concat dump_dir (Printf.sprintf "health-%d.jsonl" node) in
    if Sys.file_exists path then begin
      let ic = open_in path in
      let last = ref None in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then last := Some line
         done
       with End_of_file -> ());
      close_in ic;
      match !last with
      | None -> ()
      | Some line -> (
        match Scrape.of_string line with
        | Error _ -> incr decode_errors
        | Ok snap ->
          violations := !violations + snap.Scrape.violations;
          (match
             Registry.Doc.find snap.Scrape.metrics ~subsystem:"wire"
               ~name:"decode_errors"
           with
           | Some (Registry.Doc.Counter k) ->
             decode_errors := !decode_errors + k
           | Some _ | None -> ()))
    end
  done;
  (!violations, !decode_errors)

(* --- orchestration --------------------------------------------------- *)

let kill_children pids =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with _ -> ()) pids

let reap pids ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait_one pid =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () < deadline then begin
        ignore (Unix.select [] [] [] 0.02);
        wait_one pid
      end
      else begin
        (try Unix.kill pid Sys.sigkill with _ -> ());
        ignore (Unix.waitpid [] pid)
      end
    | _ -> ()
    | exception Unix.Unix_error (ECHILD, _, _) -> ()
  in
  List.iter wait_one pids

let shutdown_ring c ~n =
  for node = 0 to n - 1 do
    Live_transport.send c.tr ~src:c.self ~dst:node Wire.Shutdown
  done;
  (* Let the shutdown frames flush: pump until nothing is queued toward
     any node, for at most a second. *)
  let rec flushed node =
    node >= n || (Live_transport.pending_bytes c.tr node = 0 && flushed (node + 1))
  in
  ignore (pump c ~seconds:1.0 (fun () -> flushed 0))

let smoke_workload c ~n ~inserts ~lookups =
  let key i = Printf.sprintf "live-key-%04d" i in
  for i = 1 to inserts do
    Live_transport.send c.tr ~src:c.self ~dst:((i - 1) mod n)
      (Wire.Client_insert { req = i; key = key i; value = Printf.sprintf "v%d" i })
  done;
  let inserts_done () =
    let ok = ref 0 in
    for i = 1 to inserts do
      if Hashtbl.mem c.replies i then incr ok
    done;
    !ok = inserts
  in
  let _ = pump c ~seconds:30. inserts_done in
  let inserts_ok = ref 0 in
  for i = 1 to inserts do
    match Hashtbl.find_opt c.replies i with
    | Some (Wire.Client_reply { found = true; _ }) -> incr inserts_ok
    | _ -> ()
  done;
  let base = 1_000_000 in
  for j = 1 to lookups do
    let target = ((j * 7) mod inserts) + 1 in
    Live_transport.send c.tr ~src:c.self ~dst:((j - 1) mod n)
      (Wire.Client_lookup { req = base + j; key = key target })
  done;
  let lookups_done () =
    let ok = ref 0 in
    for j = 1 to lookups do
      if Hashtbl.mem c.replies (base + j) then incr ok
    done;
    !ok = lookups
  in
  let _ = pump c ~seconds:30. lookups_done in
  let found = ref 0 in
  for j = 1 to lookups do
    match Hashtbl.find_opt c.replies (base + j) with
    | Some (Wire.Client_reply { found = true; _ }) -> incr found
    | _ -> ()
  done;
  (!inserts_ok, !found)

let default_sample_rate = 0.01

let default_sample_seed = 0

let run ?(inserts = 200) ?(lookups = 500) ?(ready_timeout = 30.)
    ?(dump_dir = "_serve_health") ?(sample_rate = default_sample_rate)
    ?(sample_seed = default_sample_seed)
    ?(slo = []) ?(linger = 0.) ~peers:n ~port_base ~smoke () =
  (* The live loop selects with [Unix.select], whose fd_set caps out at
     FD_SETSIZE (typically 1024).  The tracker node and the parent
     client both talk to every peer, so rings past a few hundred peers
     exceed it; warn rather than corrupt fd_sets silently. *)
  if n > 400 then
    Printf.eprintf
      "serve: warning: %d peers approaches the select() FD_SETSIZE limit \
       (1024 fds); rings this size need a poll/epoll loop (see SCALING.md)\n%!"
      n;
  mkdir_p dump_dir;
  (* One epoch for the whole cluster, fixed before the forks: every
     process stamps trace times on the same zero, so merged span trees
     line up across tracks. *)
  let epoch = Unix.gettimeofday () in
  let pids =
    List.init n (fun node ->
        match Unix.fork () with
        | 0 ->
          (* Child: run the node; never returns. *)
          (try
             run_child ~node ~n ~port_base ~dump_dir ~epoch ~sample_rate
               ~sample_seed
           with e ->
             Printf.eprintf "node %d died: %s\n%!" node (Printexc.to_string e);
             exit 2)
        | pid -> pid)
  in
  let c = make_client ~self:n ~listen_peers:n ~port_base in
  let finish ~ready_nodes ~inserts_ok ~lookups_found ~lookups_total ~obs =
    shutdown_ring c ~n;
    Live_transport.stop c.tr;
    reap pids ~seconds:5.;
    let violations, decode_errors = scan_dumps ~dump_dir ~n in
    let recall =
      if lookups_total = 0 then 0.
      else float_of_int lookups_found /. float_of_int lookups_total
    in
    let exit_code =
      if
        ready_nodes = n
        && inserts_ok = inserts
        && lookups_total > 0
        && lookups_found = lookups_total
        && violations = 0
        && decode_errors = 0
        && obs.obs_slo_ok
        && obs.obs_overhead_ok
      then 0
      else 1
    in
    {
      ready_nodes;
      inserts_ok;
      lookups_found;
      lookups_total;
      recall;
      violations;
      decode_errors;
      scraped = obs.obs_scraped;
      slo_ok = obs.obs_slo_ok;
      trace_overhead_pct = obs.obs_overhead_pct;
      exit_code;
    }
  in
  let no_obs =
    { obs_scraped = 0; obs_slo_ok = true; obs_overhead_pct = 0.;
      obs_overhead_ok = true }
  in
  let all_ready, ready_nodes = wait_ready c ~n ~seconds:ready_timeout in
  if not all_ready then begin
    Printf.eprintf "serve: only %d/%d nodes ready after %.0fs\n%!" ready_nodes
      n ready_timeout;
    let o =
      finish ~ready_nodes ~inserts_ok:0 ~lookups_found:0 ~lookups_total:0
        ~obs:no_obs
    in
    kill_children pids;
    { o with exit_code = 1 }
  end
  else if smoke then begin
    Printf.printf "serve: ring of %d nodes ready on ports %d-%d\n%!" n
      port_base (port_base + n - 1);
    let inserts_ok, lookups_found = smoke_workload c ~n ~inserts ~lookups in
    (* scrape while the ring is still serving — this is the live window
       dump-on-exit never had *)
    let obs = observe_cluster c ~n ~dump_dir ~slo ~sample_rate in
    if linger > 0. then begin
      (* hold the warmed-up ring open so an external aggregator
         ([p2psim top] / [cluster-report]) can scrape populated
         histograms; cluster-metrics.json already on disk marks the
         window's start for scripts *)
      Printf.printf "serve: lingering %.0fs for external scrapes\n%!" linger;
      ignore (pump c ~seconds:linger (fun () -> false))
    end;
    finish ~ready_nodes ~inserts_ok ~lookups_found ~lookups_total:lookups ~obs
  end
  else begin
    Printf.printf
      "serve: ring of %d nodes ready on ports %d-%d (Ctrl-C to stop)\n%!" n
      port_base (port_base + n - 1);
    let stop = ref false in
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
    while not !stop do
      ignore (Live_transport.step ~timeout:0.2 c.tr)
    done;
    let o =
      finish ~ready_nodes ~inserts_ok:0 ~lookups_found:0 ~lookups_total:0
        ~obs:no_obs
    in
    (* Without a smoke workload, success means the ring formed and the
       dumps are clean. *)
    {
      o with
      exit_code =
        (if ready_nodes = n && o.violations = 0 && o.decode_errors = 0 then 0
         else 1);
    }
  end

let print_outcome o =
  Printf.printf
    "serve: ready=%d inserts_ok=%d lookups=%d/%d recall=%.3f violations=%d \
     decode_errors=%d scraped=%d slo_ok=%b trace_overhead=%.3f%% -> %s\n%!"
    o.ready_nodes o.inserts_ok o.lookups_found o.lookups_total o.recall
    o.violations o.decode_errors o.scraped o.slo_ok o.trace_overhead_pct
    (if o.exit_code = 0 then "PASS" else "FAIL")
