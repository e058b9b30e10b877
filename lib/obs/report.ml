module Ascii_plot = P2p_stats.Ascii_plot
module Doc = Registry.Doc

let render_histogram buf name (h : Doc.summary) =
  Buffer.add_string buf
    (Printf.sprintf "  %-28s n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f\n"
       name h.count h.mean h.stddev h.min h.p50 h.p90 h.p99 h.max);
  if h.bins <> [] && h.count > 1 then begin
    let bars =
      List.map (fun (lo, count) -> (Printf.sprintf "%10.2f" lo, float_of_int count)) h.bins
    in
    let chart = Ascii_plot.histogram ~bars () in
    String.split_on_char '\n' chart
    |> List.iter (fun line ->
           if line <> "" then Buffer.add_string buf ("    " ^ line ^ "\n"))
  end

let strip_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  if l > ls && String.sub s (l - ls) ls = suffix then Some (String.sub s 0 (l - ls))
  else None

(* The ["audit"] subsystem renders as a per-check health table instead of
   a raw metric dump: the auditor writes a [<check>_violations] counter
   and a [<check>_last_run_ms] freshness gauge per invariant check, which
   pair up into OK / VIOLATED rows.  Metrics that follow neither naming
   convention (the health gauges — load balance, peers in transit, ...)
   print as usual below the table, so nothing in the file is hidden. *)
let render_health buf metrics =
  Buffer.add_string buf "== health (audit) ==\n";
  (match List.assoc_opt "ticks" metrics with
   | Some (Doc.Counter n) ->
     Buffer.add_string buf (Printf.sprintf "  %-28s %d\n" "audit ticks" n)
   | _ -> ());
  List.iter
    (fun (name, metric) ->
      match (metric, strip_suffix ~suffix:"_violations" name) with
      | Doc.Counter v, Some check ->
        let verdict = if v = 0 then "OK" else Printf.sprintf "VIOLATED (%d)" v in
        let freshness =
          match List.assoc_opt (check ^ "_last_run_ms") metrics with
          | Some (Doc.Gauge t) -> Printf.sprintf "  last run %g ms" t
          | _ -> ""
        in
        Buffer.add_string buf (Printf.sprintf "  %-20s %-14s%s\n" check verdict freshness)
      | _ -> ())
    metrics;
  List.iter
    (fun (name, metric) ->
      match metric with
      | Doc.Gauge v
        when name <> "ticks"
             && strip_suffix ~suffix:"_last_run_ms" name = None
             && strip_suffix ~suffix:"_violations" name = None ->
        Buffer.add_string buf (Printf.sprintf "  %-28s %g\n" name v)
      | _ -> ())
    metrics;
  Buffer.add_char buf '\n'

let render_loghist_line buf name l =
  let p = Log_hist.percentile l in
  Buffer.add_string buf
    (Printf.sprintf "  %-28s %8d %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n" name
       (Log_hist.count l) (p 50.0) (p 90.0) (p 95.0) (p 99.0) (p 99.9)
       (Log_hist.max_value l))

(* "<kind>_tier_<tier>_ms" -> (kind, tier) *)
let split_tier_gauge name =
  match strip_suffix ~suffix:"_ms" name with
  | None -> None
  | Some stem ->
    let marker = "_tier_" in
    let ml = String.length marker and n = String.length stem in
    let rec scan i =
      if i + ml > n then None
      else if String.sub stem i ml = marker then
        Some (String.sub stem 0 i, String.sub stem (i + ml) (n - i - ml))
      else scan (i + 1)
    in
    scan 0

(* The ["latency"] subsystem (written by the span analyzer) renders as a
   percentile table over the log-bucketed histograms plus a per-tier
   critical-path attribution line per op kind.  Attribution percentages
   are relative to the summed total latency of that kind, so the listed
   tiers visibly account for <= 100% of where the time went. *)
let render_latency buf metrics =
  Buffer.add_string buf "== latency ==\n";
  (match List.assoc_opt "ops_analyzed" metrics with
   | Some (Doc.Counter n) ->
     Buffer.add_string buf (Printf.sprintf "  %-28s %d\n" "ops analyzed" n)
   | _ -> ());
  let rows =
    List.filter_map
      (fun (name, metric) ->
        match metric with
        | Doc.Log_histogram l when Log_hist.count l > 0 -> Some (name, l)
        | _ -> None)
      metrics
  in
  if rows <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "  %-28s %8s %9s %9s %9s %9s %9s %9s\n" "metric" "n" "p50"
         "p90" "p95" "p99" "p99.9" "max");
    List.iter (fun (name, l) -> render_loghist_line buf name l) rows
  end;
  let tiers =
    List.filter_map
      (fun (name, metric) ->
        match metric with
        | Doc.Gauge v -> (
          match split_tier_gauge name with
          | Some (kind, tier) -> Some (kind, (tier, v))
          | None -> None)
        | _ -> None)
      metrics
  in
  let kinds =
    List.fold_left
      (fun acc (kind, _) -> if List.mem kind acc then acc else acc @ [ kind ])
      [] tiers
  in
  List.iter
    (fun kind ->
      let parts = List.filter_map
          (fun (k, tv) -> if k = kind then Some tv else None)
          tiers
      in
      let total_ms =
        match List.assoc_opt (kind ^ "_total_ms") metrics with
        | Some (Doc.Log_histogram l) when Log_hist.sum l > 0.0 -> Some (Log_hist.sum l)
        | _ -> None
      in
      let part_str (tier, ms) =
        match total_ms with
        | Some total ->
          Printf.sprintf "%s %.1f ms (%.1f%%)" tier ms (100.0 *. ms /. total)
        | None -> Printf.sprintf "%s %.1f ms" tier ms
      in
      Buffer.add_string buf
        (Printf.sprintf "  critical path (%s): %s%s\n" kind
           (String.concat ", " (List.map part_str parts))
           (match total_ms with
            | Some total -> Printf.sprintf " of %.1f ms total" total
            | None -> "")))
    kinds;
  Buffer.add_char buf '\n'

(* The ["gc"] subsystem renders as a one-line runtime header at the very
   top of the report — the allocation rate is the hot-path signal every
   workflow should see without asking — and is skipped in the body so it
   does not repeat itself. *)
let render_runtime_header buf metrics =
  let value name =
    match List.assoc_opt name metrics with Some (Doc.Gauge v) -> Some v | _ -> None
  in
  let part fmt name = Option.map (Printf.sprintf fmt) (value name) in
  let parts =
    List.filter_map Fun.id
      [
        part "alloc %.1f MB/s" "alloc_rate_mb_s";
        part "heap %.1f MB" "heap_mb";
        part "minor gcs %.0f" "minor_collections";
        part "major gcs %.0f" "major_collections";
        part "compactions %.0f" "compactions";
      ]
  in
  if parts <> [] then
    Buffer.add_string buf ("runtime: " ^ String.concat " | " parts ^ "\n\n")

let render (doc : Doc.t) =
  let buf = Buffer.create 1024 in
  (match List.assoc_opt "gc" doc with
   | Some metrics -> render_runtime_header buf metrics
   | None -> ());
  List.iter
    (fun (subsystem, metrics) ->
      if subsystem = "gc" then ()
      else if subsystem = "audit" then render_health buf metrics
      else if subsystem = "latency" then render_latency buf metrics
      else begin
        Buffer.add_string buf (Printf.sprintf "== %s ==\n" subsystem);
        (* counters and gauges first, aligned; histograms after with charts *)
        List.iter
          (fun (name, metric) ->
            match metric with
            | Doc.Counter v -> Buffer.add_string buf (Printf.sprintf "  %-28s %d\n" name v)
            | Doc.Gauge v -> Buffer.add_string buf (Printf.sprintf "  %-28s %g\n" name v)
            | Doc.Histogram _ | Doc.Log_histogram _ -> ())
          metrics;
        List.iter
          (fun (name, metric) ->
            match metric with
            | Doc.Histogram h -> render_histogram buf name h
            | Doc.Log_histogram l ->
              if Log_hist.count l > 0 then
                Buffer.add_string buf
                  (Printf.sprintf
                     "  %-28s n=%d p50=%.3f p95=%.3f p99=%.3f max=%.3f\n" name
                     (Log_hist.count l) (Log_hist.percentile l 50.0)
                     (Log_hist.percentile l 95.0) (Log_hist.percentile l 99.0)
                     (Log_hist.max_value l))
            | Doc.Counter _ | Doc.Gauge _ -> ())
          metrics;
        Buffer.add_char buf '\n'
      end)
    doc;
  Buffer.contents buf

(* --- timeline sparklines --- *)

let spark_glyphs = [| "\u{2581}"; "\u{2582}"; "\u{2583}"; "\u{2584}"; "\u{2585}"; "\u{2586}"; "\u{2587}"; "\u{2588}" |]

let spark values =
  match values with
  | [] -> ""
  | _ ->
    let mx = List.fold_left Float.max 0.0 values in
    let glyph v =
      if mx <= 0.0 then spark_glyphs.(0)
      else
        spark_glyphs.(Stdlib.min 7 (Stdlib.max 0 (int_of_float (v /. mx *. 8.0))))
    in
    String.concat "" (List.map glyph values)

(* Average runs of samples down to [width] columns so a long run's
   timeline still fits a terminal row. *)
let downsample ~width values =
  let n = List.length values in
  if n <= width then values
  else begin
    let arr = Array.of_list values in
    List.init width (fun c ->
        let lo = c * n / width and hi = Stdlib.max 1 ((c + 1) * n / width) in
        let hi = Stdlib.max hi (lo + 1) in
        let sum = ref 0.0 in
        for i = lo to hi - 1 do
          sum := !sum +. arr.(i)
        done;
        !sum /. float_of_int (hi - lo))
  end

(* Render a sampler timeline (JSONL of {"t","counters","gauges"}) as one
   sparkline per active series: counters plot per-interval increments
   (activity rate), gauges plot raw values; flat series are skipped. *)
let render_timeline text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let parse_line line =
    Result.bind (Json.parse line) (fun json ->
        match Option.bind (Json.member "t" json) Json.to_float with
        | Some t -> Ok (t, json)
        | None -> Error "timeline line without numeric \"t\"")
  in
  let rec parse acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line line with
      | Ok sample -> parse (sample :: acc) (lineno + 1) rest
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  match parse [] 1 lines with
  | Error _ as e -> e
  | Ok [] -> Ok "== timeline ==\n  (no samples)\n"
  | Ok samples ->
    let series_of section =
      (* key -> values in sample order, missing samples as 0 *)
      let keys = ref [] in
      List.iter
        (fun (_, json) ->
          match Json.member section json with
          | Some (Json.Obj fields) ->
            List.iter
              (fun (k, _) -> if not (List.mem k !keys) then keys := !keys @ [ k ])
              fields
          | _ -> ())
        samples;
      List.map
        (fun key ->
          ( key,
            List.map
              (fun (_, json) ->
                match Option.bind (Json.member section json) (Json.member key) with
                | Some v -> Option.value ~default:0.0 (Json.to_float v)
                | None -> 0.0)
              samples ))
        !keys
    in
    let deltas values =
      match values with
      | [] -> []
      | first :: _ ->
        let prev = ref first in
        List.map
          (fun v ->
            let d = Float.max 0.0 (v -. !prev) in
            prev := v;
            d)
          values
    in
    let buf = Buffer.create 1024 in
    let times = List.map fst samples in
    let t0 = List.fold_left Float.min infinity times
    and t1 = List.fold_left Float.max neg_infinity times in
    Buffer.add_string buf
      (Printf.sprintf "== timeline (%d samples, %.0f..%.0f ms) ==\n"
         (List.length samples) t0 t1);
    let emit label values =
      let mx = List.fold_left Float.max 0.0 values
      and mn = List.fold_left Float.min infinity values in
      if mx > mn || mx > 0.0 then
        Buffer.add_string buf
          (Printf.sprintf "  %-32s %s  max %g\n" label
             (spark (downsample ~width:60 values))
             mx)
    in
    List.iter
      (fun (key, values) -> emit (key ^ " (rate)") (deltas values))
      (series_of "counters");
    List.iter (fun (key, values) -> emit key values) (series_of "gauges");
    Ok (Buffer.contents buf)
