(* compare.exe — apply the landing rules to benchmark results.

     compare.exe [--spec BENCHMARK.json] A.jsonl [B.jsonl]

   Inputs are files written by [bench.exe --out]; traced records are
   ignored.  With one file, prints each (workload, metric)'s median and
   quartiles as JSON (the form of baseline.json).  With two, A is the
   parent and B the change.  Both must hold the same workloads with the
   same number of valid runs each.  For each (workload, end-to-end
   metric):

   - medians and quartiles of both sides, and the bound check: B's
     median may be worse than A's by at most the metric's bound;
   - "unresolved" when either side's spread (IQR / median) exceeds the
     bound, unless every B run reads better than every A run, or every
     B run reads worse than every A run and B's median is worse by more
     than the bound, which is a regression;
   - the win count over pairs (A_i, B_i) in file order, so alternate the
     order in which the two sides run; a gain needs 9 of 10 pairs, a
     median difference larger than A's own IQR, and no more failed
     operations in B than in A.

   A workload whose B runs fail more operations than its A runs counts
   as a regression.  In either mode, a run that failed its correctness
   checks, and a deterministic metric (fixed by the seed) that differs
   between runs of one file and seed, are reported.  The exit code is 1
   on any of these, on a regression, and on unmatched result sets. *)

module Json = P2p_obs.Json

type record = {
  workload : string;
  seed : int;
  deterministic : string list;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

type direction = Lower | Higher

type metric = { name : string; unit : string; better : direction; bound : float }

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let get key v conv what =
  match Option.bind (Json.member key v) conv with Some x -> x | None -> die "%s: missing %s" what key

let bool = function Json.Bool b -> Some b | _ -> None

(* The untraced records of a file, and a description of each invalid
   one (a run that failed a correctness check). *)
let read_records path =
  let lines =
    match String.split_on_char '\n' (P2p_obs.Export.read_file path) with
    | lines -> List.filter (fun l -> String.trim l <> "") lines
    | exception Sys_error e -> die "%s" e
  in
  let parsed =
    List.filter_map
      (fun line ->
        match Json.parse line with
        | Error e -> die "%s: %s" path e
        | Ok v ->
          let result = get "result" v Option.some path in
          let workload = get "workload" v Json.to_str path and seed = get "seed" v Json.to_int path in
          if get "trace" v bool path then None
          else if not (get "correct" result bool path) then
            Some (Error (Printf.sprintf "%s: %s seed %d" path workload seed))
          else
            let metrics =
              match Json.member "metrics" result with
              | Some (Json.Obj fields) ->
                List.map (fun (name, m) -> (name, get "value" m Json.to_float path)) fields
              | _ -> die "%s: record without metrics" path
            in
            Some
              (Ok
                 {
                   workload;
                   seed;
                   deterministic = List.filter_map Json.to_str (get "deterministic" v Json.to_list path);
                   attempted = get "attempted" result Json.to_int path;
                   failed = get "failed" result Json.to_int path;
                   metrics;
                 }))
      lines
  in
  (List.filter_map Result.to_option parsed, List.filter_map (function Error e -> Some e | Ok _ -> None) parsed)

let read_spec path =
  let doc = match Json.parse (P2p_obs.Export.read_file path) with Ok d -> d | Error e -> die "%s: %s" path e in
  List.map
    (fun m ->
      {
        name = get "name" m Json.to_str path;
        unit = get "unit" m Json.to_str path;
        better = (match get "better" m Json.to_str path with "lower" -> Lower | _ -> Higher);
        bound = get "bound" m Json.to_float path;
      })
    (get "end_to_end" doc Json.to_list path)

let workloads records = List.sort_uniq compare (List.map (fun r -> r.workload) records)

let runs records ~workload = List.filter (fun r -> r.workload = workload) records

let values records ~workload name = List.filter_map (fun r -> List.assoc_opt name r.metrics) (runs records ~workload)

let sum_failed records ~workload = List.fold_left (fun n r -> n + r.failed) 0 (runs records ~workload)

(* deterministic metrics must repeat exactly for one seed *)
let drift path records =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun name ->
          let same =
            List.filter_map
              (fun r' -> if r'.workload = r.workload && r'.seed = r.seed then List.assoc_opt name r'.metrics else None)
              records
          in
          if List.for_all (fun v -> Some v = List.assoc_opt name r.metrics) same then None
          else Some (Printf.sprintf "%s: %s seed %d %s" path r.workload r.seed name))
        r.deterministic)
    records
  |> List.sort_uniq compare

(* problems that make a result file unusable, printed by both modes *)
let report_invalid ~print invalid drifts =
  List.iter (fun d -> print ("INVALID run " ^ d)) invalid;
  List.iter (fun d -> print ("DRIFT " ^ d)) drifts

let summary spec records =
  let workload w =
    let metric m =
      let v = values records ~workload:w m.name in
      let q1, q3 = Stats.quartiles v in
      ( m.name,
        Json.Obj
          [ ("unit", Json.String m.unit); ("runs", Json.Int (List.length v));
            ("median", Json.Float (Stats.median v)); ("q1", Json.Float q1); ("q3", Json.Float q3);
            ("spread", Json.Float (Stats.spread v)) ] )
    in
    (w, Json.Obj (List.map metric spec))
  in
  print_endline (Json.to_string (Json.Obj (List.map workload (workloads records))))

let better m x y = match m.better with Lower -> x < y | Higher -> x > y

let verdict m ~fails_more a b =
  let med_a = Stats.median a and med_b = Stats.median b in
  let q1a, q3a = Stats.quartiles a in
  let worse = (match m.better with Lower -> med_b -. med_a | Higher -> med_a -. med_b) /. Float.abs med_a in
  let spread = Float.max (Stats.spread a) (Stats.spread b) in
  let pairs = List.length a in
  let wins = List.length (List.filter Fun.id (List.map2 (fun x y -> better m y x) a b)) in
  let every rel = List.for_all (fun y -> List.for_all (fun x -> rel y x) a) b in
  let v =
    if worse > m.bound && (spread <= m.bound || every (fun y x -> better m x y)) then "REGRESSION"
    else if spread > m.bound then if every (better m) then "better (every run)" else "unresolved"
    else if
      (not fails_more) && 10 * wins >= 9 * pairs
      && Float.abs (med_b -. med_a) > q3a -. q1a
      && better m med_b med_a
    then "gain"
    else "within bound"
  in
  (med_a, med_b, worse, spread, wins, pairs, v)

let compare_files spec (pa, (a, invalid_a)) (pb, (b, invalid_b)) =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let matched =
    List.filter
      (fun w ->
        match (List.length (runs a ~workload:w), List.length (runs b ~workload:w)) with
        | na, nb when na = nb -> true
        | na, nb ->
          problem "UNMATCHED %s: %d valid runs in %s, %d in %s" w na pa nb pb;
          false)
      (List.sort_uniq compare (workloads a @ workloads b))
  in
  Printf.printf "%-9s %-18s %14s %14s %9s %8s %7s  %s\n" "workload" "metric" "A median" "B median"
    "worse %" "spread" "wins" "verdict";
  let regressions = ref 0 and unresolved = ref 0 in
  List.iter
    (fun w ->
      let failed_a = sum_failed a ~workload:w and failed_b = sum_failed b ~workload:w in
      let fails_more = failed_b > failed_a in
      if fails_more then begin
        incr regressions;
        problem "FAILED %s: %d operations failed in %s, %d in %s" w failed_a pa failed_b pb
      end;
      List.iter
        (fun m ->
          let med_a, med_b, worse, spread, wins, pairs, v =
            verdict m ~fails_more (values a ~workload:w m.name) (values b ~workload:w m.name)
          in
          if v = "REGRESSION" then incr regressions;
          if v = "unresolved" then incr unresolved;
          Printf.printf "%-9s %-18s %14.6g %14.6g %+8.2f%% %7.2f%% %3d/%-3d  %s (bound %.0f%%)\n" w m.name
            med_a med_b (100.0 *. worse) (100.0 *. spread) wins pairs v (100.0 *. m.bound))
        spec)
    matched;
  let drifts = drift pa a @ drift pb b in
  report_invalid ~print:print_endline (invalid_a @ invalid_b) drifts;
  List.iter print_endline (List.rev !problems);
  Printf.printf "%d regressions, %d unresolved, %d drifting counts, %d invalid runs, %d unmatched workloads\n"
    !regressions !unresolved (List.length drifts)
    (List.length invalid_a + List.length invalid_b)
    (List.length (List.sort_uniq compare (workloads a @ workloads b)) - List.length matched);
  if !regressions > 0 || drifts <> [] || invalid_a @ invalid_b <> [] || !problems <> [] then exit 1

let () =
  let rec args spec files = function
    | "--spec" :: path :: rest -> args path files rest
    | file :: rest -> args spec (files @ [ file ]) rest
    | [] -> (spec, files)
  in
  let spec_path, files = args "BENCHMARK.json" [] (List.tl (Array.to_list Sys.argv)) in
  let spec = read_spec spec_path in
  match files with
  | [ a ] ->
    let records, invalid = read_records a in
    let drifts = drift a records in
    report_invalid ~print:prerr_endline invalid drifts;
    summary spec records;
    if drifts <> [] || invalid <> [] then exit 1
  | [ a; b ] -> compare_files spec (a, read_records a) (b, read_records b)
  | _ -> die "usage: compare.exe [--spec BENCHMARK.json] A.jsonl [B.jsonl]"
