(* Versioned per-process observability snapshots and their cluster-wide
   merge.

   A live node answers a scrape with one JSON document: ring-position
   health (ready, p_id, successor/predecessor, store size, violations),
   its full {!Registry} export, and — on request — the chrome span
   events its trace still retains.  The aggregator side decodes those
   documents back (the registry part through {!Registry.Doc.of_json}, so
   a snapshot whose metrics do not decode is rejected whole), folds
   every registry into one merged registry
   (counters sum, gauges take the max, log histograms merge bucketwise —
   so cluster p99 comes from the true merged distribution, not an
   average of per-node percentiles), and pools the span events into a
   single Perfetto file with one process track per node.

   Plain summary-backed histograms cannot be reconstructed from their
   fixed-width export bins, so they are carried per-node but skipped in
   the merge; every latency surface the live path feeds is a log
   histogram precisely so the merge is lossless. *)

let snapshot_version = 1

type snapshot = {
  node : int;
  at : float;  (* ms on the cluster-shared epoch *)
  uptime_ms : float;
  ready : bool;
  p_id : int;
  succ : int;
  pred : int;
  store : int;
  violations : int;
  metrics : Registry.Doc.t;
  trace : Json.t list;  (* chrome span events; [] unless requested *)
}

let to_json s =
  Json.Obj
    [
      ("type", Json.String "scrape");
      ("version", Json.Int snapshot_version);
      ("node", Json.Int s.node);
      ("at", Json.Float s.at);
      ("uptime_ms", Json.Float s.uptime_ms);
      ("ready", Json.Bool s.ready);
      ("p_id", Json.Int s.p_id);
      ("succ", Json.Int s.succ);
      ("pred", Json.Int s.pred);
      ("store", Json.Int s.store);
      ("violations", Json.Int s.violations);
      ("metrics", Registry.Doc.to_json s.metrics);
      ("trace", Json.List s.trace);
    ]

let to_string s = Json.to_string (to_json s)

let of_json j =
  let int name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "scrape: missing or bad %S" name)
  in
  let float name =
    match Option.bind (Json.member name j) Json.to_float with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "scrape: missing or bad %S" name)
  in
  let ( let* ) = Result.bind in
  let* () =
    match Option.bind (Json.member "type" j) Json.to_str with
    | Some "scrape" -> Ok ()
    | Some other -> Error (Printf.sprintf "scrape: wrong document type %S" other)
    | None -> Error "scrape: missing \"type\""
  in
  let* v = int "version" in
  let* () =
    if v = snapshot_version then Ok ()
    else Error (Printf.sprintf "scrape: unsupported snapshot version %d" v)
  in
  let* node = int "node" in
  let* at = float "at" in
  let* uptime_ms = float "uptime_ms" in
  let* ready =
    match Json.member "ready" j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "scrape: missing or bad \"ready\""
  in
  let* p_id = int "p_id" in
  let* succ = int "succ" in
  let* pred = int "pred" in
  let* store = int "store" in
  let* violations = int "violations" in
  let* metrics =
    match Json.member "metrics" j with
    | Some m -> Result.map_error (( ^ ) "scrape: metrics: ") (Registry.Doc.of_json m)
    | None -> Error "scrape: missing \"metrics\""
  in
  let trace =
    match Option.bind (Json.member "trace" j) Json.to_list with
    | Some l -> l
    | None -> []
  in
  Ok { node; at; uptime_ms; ready; p_id; succ; pred; store; violations;
       metrics; trace }

let of_string text =
  match Json.parse text with Error e -> Error e | Ok j -> of_json j

let metrics_of_json j =
  match Option.bind (Json.member "type" j) Json.to_str with
  | Some "scrape" -> Result.map (fun s -> s.metrics) (of_json j)
  | _ -> Registry.Doc.of_json j

(* --- registry merge --------------------------------------------------- *)

(* Counters add, gauges keep the max (a cluster high-water), log
   histograms merge bucketwise.  Summary histograms are skipped, and so
   is a metric whose name holds another shape in an earlier document:
   one mislabelled peer must not poison the cluster report. *)
let merge docs =
  let reg = Registry.create () in
  List.iter
    (List.iter (fun (subsystem, metrics) ->
         List.iter
           (fun (name, value) ->
             try
               match value with
               | Registry.Doc.Counter n ->
                 Registry.incr ~by:n (Registry.counter reg ~subsystem ~name)
               | Registry.Doc.Gauge v ->
                 Registry.set_max (Registry.gauge reg ~subsystem ~name) v
               | Registry.Doc.Log_histogram h ->
                 Log_hist.merge_into
                   ~into:(Registry.log_histogram reg ~subsystem ~name) h
               | Registry.Doc.Histogram _ -> ()
             with Invalid_argument _ -> ())
           metrics))
    docs;
  reg

let merged_registry snapshots = merge (List.map (fun s -> s.metrics) snapshots)

(* --- merged chrome trace ---------------------------------------------- *)

(* Pool every snapshot's span events into one trace-event array.  The
   per-node exports each carry their own [ph:"M"] process metadata for
   just the pids that node saw; strip those and re-derive one metadata
   set from the pooled events so every process track is named exactly
   once. *)
let merged_chrome snapshots =
  let is_meta e =
    match Option.bind (Json.member "ph" e) Json.to_str with
    | Some "M" -> true
    | _ -> false
  in
  let events =
    List.concat_map (fun s -> List.filter (fun e -> not (is_meta e)) s.trace)
      snapshots
  in
  let pids = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match Option.bind (Json.member "pid" e) Json.to_int with
      | Some pid -> Hashtbl.replace pids pid ()
      | None -> ())
    events;
  let metadata =
    Hashtbl.fold (fun pid () acc -> pid :: acc) pids []
    |> List.sort compare
    |> List.map (fun pid ->
           Json.Obj
             [
               ("name", Json.String "process_name");
               ("ph", Json.String "M");
               ("pid", Json.Int pid);
               ("tid", Json.Int 0);
               ( "args",
                 Json.Obj
                   [
                     (* live-span pids are node indices (the span's dst),
                        so node 0 really is a peer — no "ops" track here *)
                     ("name", Json.String (Printf.sprintf "peer %d" pid));
                   ] );
             ])
  in
  Json.List (metadata @ events)

(* --- rendering -------------------------------------------------------- *)

(* A node's latency histogram, when it holds samples. *)
let samples doc name =
  match Registry.Doc.find doc ~subsystem:"latency" ~name with
  | Some (Registry.Doc.Log_histogram h) when Log_hist.count h > 0 -> Some h
  | _ -> None

let wire_counter doc name =
  match Registry.Doc.find doc ~subsystem:"wire" ~name with
  | Some (Registry.Doc.Counter n) -> n
  | _ -> 0

let pctl h p = Log_hist.percentile h p

let render_table snapshots =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%5s %6s %6s %5s %7s %10s %10s %10s %7s\n" "node" "ready"
       "store" "viol" "ops" "p50(ms)" "p99(ms)" "sent" "drops");
  let sorted = List.sort (fun a b -> compare a.node b.node) snapshots in
  List.iter
    (fun s ->
      let lookups = samples s.metrics "lookup_total_ms"
      and inserts = samples s.metrics "insert_total_ms" in
      let merged =
        match (lookups, inserts) with
        | Some a, Some b -> Some (Log_hist.merge a b)
        | (Some _ as h), None | None, (Some _ as h) -> h
        | None, None -> None
      in
      let ops = match merged with Some h -> Log_hist.count h | None -> 0 in
      let pc p =
        match merged with
        | Some h -> Printf.sprintf "%10.2f" (pctl h p)
        | None -> Printf.sprintf "%10s" "-"
      in
      let sent = wire_counter s.metrics "msgs_sent"
      and drops = wire_counter s.metrics "drops" in
      Buffer.add_string b
        (Printf.sprintf "%5d %6s %6d %5d %7d %s %s %10d %7d\n" s.node
           (if s.ready then "yes" else "NO")
           s.store s.violations ops (pc 50.0) (pc 99.0) sent drops))
    sorted;
  let merged = merged_registry snapshots in
  let cluster kind =
    let h =
      try
        Some (Registry.log_histogram merged ~subsystem:"latency"
                ~name:(kind ^ "_total_ms"))
      with Invalid_argument _ -> None
    in
    match h with
    | Some h when Log_hist.count h > 0 ->
      Printf.sprintf "%s n=%d p50=%.2fms p99=%.2fms" kind (Log_hist.count h)
        (pctl h 50.0) (pctl h 99.0)
    | _ -> Printf.sprintf "%s (no samples)" kind
  in
  Buffer.add_string b
    (Printf.sprintf "cluster: %d/%d ready | %s | %s\n"
       (List.length (List.filter (fun s -> s.ready) snapshots))
       (List.length snapshots) (cluster "lookup") (cluster "insert"));
  Buffer.contents b
