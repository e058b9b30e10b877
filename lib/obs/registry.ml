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

let summary_to_json s =
  let base = [ ("kind", Json.String "histogram"); ("count", Json.Int (Summary.count s)) ] in
  if Summary.count s = 0 then Json.Obj base
  else
    Json.Obj
      (base
      @ [
          ("mean", Json.Float (Summary.mean s));
          ("stddev", Json.Float (Summary.stddev s));
          ("min", Json.Float (Summary.min s));
          ("p50", Json.Float (Summary.median s));
          ("p90", Json.Float (Summary.percentile s 90.0));
          ("p99", Json.Float (Summary.percentile s 99.0));
          ("max", Json.Float (Summary.max s));
          ( "bins",
            Json.List
              (List.map
                 (fun (lo, count) ->
                   Json.Obj [ ("lo", Json.Float lo); ("count", Json.Int count) ])
                 (histogram_bins s)) );
        ])

let metric_to_json = function
  | Counter c -> Json.Obj [ ("kind", Json.String "counter"); ("value", Json.Int c.count) ]
  | Gauge g -> Json.Obj [ ("kind", Json.String "gauge"); ("value", Json.Float g.value) ]
  | Histogram h -> summary_to_json h.summary
  | Log l -> Log_hist.to_json l

let to_json t =
  let by_subsystem =
    List.map
      (fun subsystem ->
        let fields =
          List.filter_map
            (fun b ->
              if b.subsystem = subsystem then Some (b.name, metric_to_json b.metric)
              else None)
            (bindings t)
        in
        (subsystem, Json.Obj fields))
      (subsystems t)
  in
  Json.Obj by_subsystem

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun subsystem ->
      Format.fprintf ppf "%s:@," subsystem;
      List.iter
        (fun b ->
          if b.subsystem = subsystem then
            match b.metric with
            | Counter c -> Format.fprintf ppf "  %-28s %d@," b.name c.count
            | Gauge g -> Format.fprintf ppf "  %-28s %g@," b.name g.value
            | Histogram h -> Format.fprintf ppf "  %-28s %a@," b.name Summary.pp h.summary
            | Log l ->
              if Log_hist.count l = 0 then
                Format.fprintf ppf "  %-28s (empty)@," b.name
              else
                Format.fprintf ppf
                  "  %-28s n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f@,"
                  b.name (Log_hist.count l) (Log_hist.mean l)
                  (Log_hist.percentile l 50.0) (Log_hist.percentile l 95.0)
                  (Log_hist.percentile l 99.0) (Log_hist.max_value l))
        (bindings t))
    (subsystems t);
  Format.fprintf ppf "@]"
