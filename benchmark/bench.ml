(* bench.exe — the repository benchmark.

   Runs each workload through the p2psim binary as a subprocess, checks
   its outputs, and prints one JSON line per workload:
     {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}
   Untraced runs report the end-to-end metrics; --trace runs report the
   per-layer ones, from an untraced CLI run plus an in-process traced
   replay of the same seed (see replay.ml).  See README.md. *)

module Json = P2p_obs.Json
module W = Workloads

type opts = {
  workloads : W.t list;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  p2psim : string;
  work_dir : string;
  spec : string option;
}

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  deterministic : string list;  (** metrics fixed by the seed *)
}

(* the workloads of BENCHMARK.json, run when no --workload is given *)
let benchmark_workloads = [ "run-1k"; "run-5k"; "churn-r2" ]

let usage () =
  prerr_string
    "usage: bench.exe [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]\n\
    \                 [--out FILE] [--p2psim PATH] [--work-dir DIR] [--spec BENCHMARK.json]\n";
  exit 2

let parse_args argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: name :: rest -> (
      match W.find name with
      | Some w -> go { o with workloads = o.workloads @ [ w ] } rest
      | None ->
        Printf.eprintf "bench: unknown workload %S\n" name;
        exit 2)
    | "--seed" :: n :: rest -> go { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { o with seconds = float_of_string s } rest
    | "--trace" :: ("1" | "true") :: rest -> go { o with trace = true } rest
    | "--trace" :: ("0" | "false") :: rest -> go { o with trace = false } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | "--p2psim" :: p :: rest -> go { o with p2psim = p } rest
    | "--work-dir" :: d :: rest -> go { o with work_dir = d } rest
    | "--spec" :: f :: rest -> go { o with spec = Some f } rest
    | _ -> usage ()
  in
  let o =
    try
      go
        { workloads = []; seed = 42; seconds = 30.0; trace = false; out = None;
          p2psim = "_build/default/bin/p2psim.exe"; work_dir = "_bench"; spec = None }
        (List.tl (Array.to_list argv))
    with Failure _ -> usage ()
  in
  if o.workloads = [] then
    { o with workloads = List.filter_map W.find benchmark_workloads }
  else o

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let now = Unix.gettimeofday

(* --- untraced runs ---------------------------------------------------- *)

(* A run with seed [seed] measures the workload on [seeds_per_round]
   CLI seeds, each building its own topology and inputs, so its numbers
   average over topologies instead of hanging on one.  The set depends
   on [seed] alone: a faster commit measures the same inputs, never
   other ones. *)
let seeds_per_round = 5

let cli_seed seed i = (1000 * seed) + (10 * i)

(* Rounds over the seed set repeat while one more round still fits in
   [seconds]; the first always runs.  Every seed is measured equally
   often, so times and memory are medians over all samples.  The
   simulated quantities, fixed by each seed, are means over one round,
   and their counts must repeat exactly in every later round. *)
let untraced_sim o run =
  let t0 = now () in
  let round () = List.init seeds_per_round (fun i -> run ~seed:(cli_seed o.seed i)) in
  let rec go rounds =
    let r0 = now () in
    let rounds = round () :: rounds in
    let t = now () in
    if t -. t0 +. (t -. r0) <= o.seconds then go rounds else List.rev rounds
  in
  let rounds = go [] in
  let first = List.hd rounds in
  List.iter
    (List.iter2
       (fun (a : Cli.sample) (b : Cli.sample) ->
         Check.same_counts ~what:"repeat of one seed" a.Cli.counts b.Cli.counts)
       first)
    (List.tl rounds);
  let samples = List.concat rounds in
  let med f = Stats.median (List.map f samples) in
  let mean f = List.fold_left (fun acc s -> acc +. f s) 0.0 first /. float_of_int seeds_per_round in
  {
    attempted = List.fold_left (fun n (s : Cli.sample) -> n + s.Cli.attempted) 0 samples;
    failed = List.fold_left (fun n (s : Cli.sample) -> n + s.Cli.failed) 0 samples;
    metrics =
      [ ("setup_s", med (fun s -> s.Cli.setup_s));
        ("ops_per_s", med (fun s -> s.Cli.ops_per_s));
        ("lookup_p50_ms", mean (fun s -> s.Cli.lookup_p50_ms));
        ("lookup_p99_ms", mean (fun s -> s.Cli.lookup_p99_ms));
        ("connum_per_lookup", mean (fun s -> s.Cli.connum_per_lookup));
        ("peak_rss_mb", med (fun s -> s.Cli.peak_rss_mb)) ];
    deterministic = [ "lookup_p50_ms"; "lookup_p99_ms"; "connum_per_lookup" ];
  }

(* --- traced runs ------------------------------------------------------ *)

(* One untraced CLI run, then the in-process replay of the same seed,
   whose counts must match the CLI's (the drift guard). *)
let traced_sim ~dir ~spans ~track ~(cli : unit -> Cli.sample) ~replay =
  let sample = cli () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  (* the replayed system is dropped before routing is replayed, so the
     two routers' distance caches are never alive together *)
  let s =
    let o = replay () in
    Replay.export o ~dir;
    Replay.summarize o
  in
  let majors = (Gc.quick_stat ()).Gc.major_collections - major0 in
  Check.same_counts ~what:"drift guard: in-process replay vs CLI" sample.Cli.counts s.Replay.counts;
  Gc.compact ();
  let rc, _ =
    Btrace.time spans ~track ~cat:"topology" "routing replay" (fun () ->
        Replay.replay_routing s.Replay.graph s.Replay.pairs)
  in
  {
    attempted = sample.Cli.attempted;
    failed = sample.Cli.failed;
    metrics =
      s.Replay.metrics @ Replay.routing_metrics s rc
      @ [ ("gc.major_collections", float_of_int majors);
          ("bench.trace_overhead_pct", (s.Replay.traced_s /. sample.Cli.wall_s -. 1.0) *. 100.0) ];
    deterministic = [];
  }

let run_workload o ~spans (w : W.t) =
  let dir = Filename.concat o.work_dir w.W.name in
  mkdir_p dir;
  let p2psim = o.p2psim and track = w.W.name in
  (* a traced run replays the first seed of the untraced run *)
  let seed = cli_seed o.seed 0 in
  match (o.trace, w.W.kind) with
  | false, W.Run s -> untraced_sim o (fun ~seed -> Cli.run ~p2psim ~dir ~seed s)
  | false, W.Churn c -> untraced_sim o (fun ~seed -> Cli.churn ~p2psim ~dir ~seed c)
  | true, W.Run s ->
    traced_sim ~dir ~spans ~track
      ~cli:(fun () -> Cli.run ~p2psim ~dir ~seed s)
      ~replay:(fun () -> Replay.run ~spans ~track ~seed s)
  | true, W.Churn c ->
    traced_sim ~dir ~spans ~track
      ~cli:(fun () -> Cli.churn ~p2psim ~dir ~seed c)
      ~replay:(fun () -> Replay.scenario ~spans ~track ~seed c)

(* --- output ----------------------------------------------------------- *)

let number v = Printf.sprintf "%.17g" v

let catalogue o = if o.trace then Catalogue.per_layer else Catalogue.end_to_end

let metrics_json o r =
  let field (name, unit) =
    let v =
      match List.assoc_opt name r.metrics with
      | Some v -> v
      | None when o.trace -> 0.0
      | None -> Check.fail "metric %s was not measured" name
    in
    if not (Float.is_finite v) then Check.fail "metric %s is %s" name (number v);
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
  in
  "{" ^ String.concat ", " (List.map field (catalogue o)) ^ "}"

let result_line ~correct ~attempted ~failed ~metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" correct
    attempted failed metrics

let print_table o r =
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name r.metrics with
      | Some v when v <> 0.0 || not o.trace -> Printf.printf "  %-38s %16.6g %s\n" name v unit
      | _ -> ())
    (catalogue o)

(* Invalid runs are recorded too, so that compare.exe can refuse a
   result set that lost one. *)
let append_record o (w : W.t) ~deterministic line =
  match o.out with
  | None -> ()
  | Some path ->
    let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
    Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"trace\": %b, \"deterministic\": [%s], \"result\": %s}\n"
      w.W.name o.seed o.trace
      (String.concat ", " (List.map (Printf.sprintf "%S") deterministic))
      line;
    close_out oc

(* --- BENCHMARK.json agreement ---------------------------------------- *)

let check_spec path =
  let doc =
    match Json.parse (P2p_obs.Export.read_file path) with
    | Ok d -> d
    | Error e -> Check.fail "%s: %s" path e
  in
  let metrics key =
    match Option.bind (Json.member key doc) Json.to_list with
    | None -> Check.fail "%s: no %s list" path key
    | Some l ->
      List.map
        (fun m ->
          let str k = Option.value ~default:"" (Option.bind (Json.member k m) Json.to_str) in
          (str "name", str "unit"))
        l
  in
  let agree key catalogue =
    if metrics key <> catalogue then Check.fail "%s: %s differs from the benchmark's catalogue" path key
  in
  agree "end_to_end" Catalogue.end_to_end;
  agree "per_layer" Catalogue.per_layer;
  let names =
    List.filter_map
      (fun w -> Option.bind (Json.member "name" w) Json.to_str)
      (Option.value ~default:[] (Option.bind (Json.member "workloads" doc) Json.to_list))
  in
  if names <> benchmark_workloads then Check.fail "%s: workloads differ from the benchmark's" path

let () =
  let o = parse_args Sys.argv in
  if not (Sys.file_exists o.p2psim) then begin
    Printf.eprintf "bench: no p2psim binary at %s (dune build ./bin/p2psim.exe, or pass --p2psim)\n"
      o.p2psim;
    exit 2
  end;
  at_exit Proc.kill_all;
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  let spans = Btrace.create () in
  let current = ref None in
  match
    Option.iter check_spec o.spec;
    mkdir_p o.work_dir;
    List.iter
      (fun (w : W.t) ->
        current := Some w;
        Printf.printf "workload %s, seed %d%s\n%!" w.W.name o.seed (if o.trace then ", traced" else "");
        let r = run_workload o ~spans w in
        let line = result_line ~correct:true ~attempted:r.attempted ~failed:r.failed ~metrics:(metrics_json o r) in
        print_table o r;
        append_record o w ~deterministic:r.deterministic line;
        if o.trace then begin
          (* rewritten after each workload, so the result stays the last line *)
          let path = Filename.concat o.work_dir "bench-trace.chrome.json" in
          Btrace.write spans ~path;
          Printf.printf "trace -> %s (open in ui.perfetto.dev)\n" path
        end;
        print_endline line)
      o.workloads
  with
  | () -> ()
  | exception Check.Failed msg ->
    let where = match !current with Some w -> w.W.name ^ ": " | None -> "" in
    Printf.eprintf "bench: %scheck failed: %s\n%!" where msg;
    let line = result_line ~correct:false ~attempted:1 ~failed:0 ~metrics:"{}" in
    Option.iter (fun w -> append_record o w ~deterministic:[] line) !current;
    print_endline line;
    exit 1
