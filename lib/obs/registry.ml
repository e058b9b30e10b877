module Summary = P2p_stats.Summary

type counter = { mutable count : int }

type gauge = { mutable value : float }

type histogram = { summary : Summary.t }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Log of Log_hist.t

type t = {
  table : (string * string, metric) Hashtbl.t;
  mutable order : (string * string) list; (* registration order, reversed *)
}

let create () = { table = Hashtbl.create 64; order = [] }

let add_key t key metric =
  Hashtbl.replace t.table key metric;
  t.order <- key :: t.order

let counter t ~subsystem ~name =
  let key = (subsystem, name) in
  match Hashtbl.find_opt t.table key with
  | Some (Counter c) -> c
  | Some _ ->
    invalid_arg (Printf.sprintf "Registry.counter: %s/%s is not a counter" subsystem name)
  | None ->
    let c = { count = 0 } in
    add_key t key (Counter c);
    c

let gauge t ~subsystem ~name =
  let key = (subsystem, name) in
  match Hashtbl.find_opt t.table key with
  | Some (Gauge g) -> g
  | Some _ ->
    invalid_arg (Printf.sprintf "Registry.gauge: %s/%s is not a gauge" subsystem name)
  | None ->
    let g = { value = 0.0 } in
    add_key t key (Gauge g);
    g

let histogram t ~subsystem ~name =
  let key = (subsystem, name) in
  match Hashtbl.find_opt t.table key with
  | Some (Histogram h) -> h
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Registry.histogram: %s/%s is not a histogram" subsystem name)
  | None ->
    let h = { summary = Summary.create () } in
    add_key t key (Histogram h);
    h

let log_histogram t ~subsystem ~name =
  let key = (subsystem, name) in
  match Hashtbl.find_opt t.table key with
  | Some (Log l) -> l
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Registry.log_histogram: %s/%s is not a log histogram"
         subsystem name)
  | None ->
    let l = Log_hist.create () in
    add_key t key (Log l);
    l

let incr ?(by = 1) c = c.count <- c.count + by

let counter_value c = c.count

let set g v = g.value <- v

let set_max g v = if v > g.value then g.value <- v

let gauge_value g = g.value

let observe h v = Summary.add h.summary v

let summary h = h.summary

(* Zero every metric in place: handles held by subsystems stay valid
   (and registration order is kept), but counts, gauge values, and
   histogram samples start over — the between-configs reset a bench
   sweep needs. *)
let reset_values t =
  Hashtbl.iter
    (fun _ metric ->
      match metric with
      | Counter c -> c.count <- 0
      | Gauge g -> g.value <- 0.0
      | Histogram h -> Summary.clear h.summary
      | Log l -> Log_hist.clear l)
    t.table

(* --- iteration / export --- *)

type binding = { subsystem : string; name : string; metric : metric }

let bindings t =
  List.rev_map
    (fun ((subsystem, name) as key) ->
      { subsystem; name; metric = Hashtbl.find t.table key })
    t.order

let subsystems t =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun b ->
      if Hashtbl.mem seen b.subsystem then None
      else begin
        Hashtbl.add seen b.subsystem ();
        Some b.subsystem
      end)
    (bindings t)

(* Fixed-width bucketing of a summary's samples for report rendering:
   [bins] (lo, count) pairs covering [min, max]. *)
let histogram_bins ?(bins = 12) s =
  let n = Summary.count s in
  if n = 0 then []
  else begin
    let lo = Summary.min s and hi = Summary.max s in
    if lo = hi then [ (lo, n) ]
    else begin
      let width = (hi -. lo) /. float_of_int bins in
      let counts = Array.make bins 0 in
      Array.iter
        (fun x ->
          let b = int_of_float ((x -. lo) /. width) in
          let b = Stdlib.min (bins - 1) (Stdlib.max 0 b) in
          counts.(b) <- counts.(b) + 1)
        (Summary.samples s);
      List.init bins (fun b -> (lo +. (float_of_int b *. width), counts.(b)))
    end
  end

(* --- the metrics document --- *)

module Doc = struct
  type summary = {
    count : int;
    mean : float;
    stddev : float;
    min : float;
    p50 : float;
    p90 : float;
    p99 : float;
    max : float;
    bins : (float * int) list;
  }

  type value =
    | Counter of int
    | Gauge of float
    | Histogram of summary
    | Log_histogram of Log_hist.t

  type t = (string * (string * value) list) list

  let find doc ~subsystem ~name =
    Option.bind (List.assoc_opt subsystem doc) (List.assoc_opt name)

  let empty_summary =
    { count = 0; mean = 0.0; stddev = 0.0; min = 0.0; p50 = 0.0; p90 = 0.0;
      p99 = 0.0; max = 0.0; bins = [] }

  (* An empty summary exports its count alone. *)
  let summary_to_json h =
    let base = [ ("kind", Json.String "histogram"); ("count", Json.Int h.count) ] in
    if h.count = 0 then Json.Obj base
    else
      Json.Obj
        (base
        @ [
            ("mean", Json.Float h.mean);
            ("stddev", Json.Float h.stddev);
            ("min", Json.Float h.min);
            ("p50", Json.Float h.p50);
            ("p90", Json.Float h.p90);
            ("p99", Json.Float h.p99);
            ("max", Json.Float h.max);
            ( "bins",
              Json.List
                (List.map
                   (fun (lo, count) ->
                     Json.Obj [ ("lo", Json.Float lo); ("count", Json.Int count) ])
                   h.bins) );
          ])

  let value_to_json = function
    | Counter n -> Json.Obj [ ("kind", Json.String "counter"); ("value", Json.Int n) ]
    | Gauge v -> Json.Obj [ ("kind", Json.String "gauge"); ("value", Json.Float v) ]
    | Histogram h -> summary_to_json h
    | Log_histogram l -> Log_hist.to_json l

  let to_json doc =
    Json.Obj
      (List.map
         (fun (subsystem, metrics) ->
           (subsystem, Json.Obj (List.map (fun (name, v) -> (name, value_to_json v)) metrics)))
         doc)

  let ( let* ) = Result.bind

  let field json name conv what =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: missing or bad %S" what name)

  let rec all f = function
    | [] -> Ok []
    | x :: rest ->
      let* y = f x in
      let* ys = all f rest in
      Ok (y :: ys)

  let summary_of_json json =
    let num name = field json name Json.to_float "histogram" in
    let* count = field json "count" Json.to_int "histogram" in
    if count = 0 then Ok empty_summary
    else
      let* mean = num "mean" in
      let* stddev = num "stddev" in
      let* min = num "min" in
      let* p50 = num "p50" in
      let* p90 = num "p90" in
      let* p99 = num "p99" in
      let* max = num "max" in
      let* bins =
        match Option.bind (Json.member "bins" json) Json.to_list with
        | None -> Error "histogram: missing or bad \"bins\""
        | Some items ->
          all
            (fun item ->
              let* lo = field item "lo" Json.to_float "histogram bin" in
              let* n = field item "count" Json.to_int "histogram bin" in
              Ok (lo, n))
            items
      in
      Ok { count; mean; stddev; min; p50; p90; p99; max; bins }

  let value_of_json json =
    match Option.bind (Json.member "kind" json) Json.to_str with
    | Some "counter" ->
      Result.map (fun n -> Counter n) (field json "value" Json.to_int "counter")
    | Some "gauge" ->
      Result.map (fun v -> Gauge v) (field json "value" Json.to_float "gauge")
    | Some "histogram" -> Result.map (fun h -> Histogram h) (summary_of_json json)
    | Some "log_histogram" ->
      Result.map (fun l -> Log_histogram l) (Log_hist.of_json json)
    | Some kind -> Error (Printf.sprintf "unknown metric kind %S" kind)
    | None -> Error "metric without \"kind\""

  let of_json = function
    | Json.Obj subsystems ->
      all
        (function
          | subsystem, Json.Obj metrics ->
            let* metrics =
              all
                (fun (name, json) ->
                  Result.map (fun v -> (name, v)) (value_of_json json)
                  |> Result.map_error (Printf.sprintf "%s/%s: %s" subsystem name))
                metrics
            in
            Ok (subsystem, metrics)
          | subsystem, _ -> Error (Printf.sprintf "subsystem %S is not an object" subsystem))
        subsystems
    | _ -> Error "metrics document must be a JSON object"
end

let summary_value s =
  if Summary.count s = 0 then Doc.empty_summary
  else
    {
      Doc.count = Summary.count s;
      mean = Summary.mean s;
      stddev = Summary.stddev s;
      min = Summary.min s;
      p50 = Summary.median s;
      p90 = Summary.percentile s 90.0;
      p99 = Summary.percentile s 99.0;
      max = Summary.max s;
      bins = histogram_bins s;
    }

let doc t =
  let all = bindings t in
  List.map
    (fun subsystem ->
      ( subsystem,
        List.filter_map
          (fun b ->
            if b.subsystem <> subsystem then None
            else
              Some
                ( b.name,
                  match b.metric with
                  | Counter c -> Doc.Counter c.count
                  | Gauge g -> Doc.Gauge g.value
                  | Histogram h -> Doc.Histogram (summary_value h.summary)
                  (* a copy: the document is a snapshot, the handle keeps
                     recording *)
                  | Log l -> Doc.Log_histogram (Log_hist.merge l (Log_hist.create ())) ))
          all ))
    (subsystems t)

let to_json t = Doc.to_json (doc t)
