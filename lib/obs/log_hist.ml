(* Log-bucketed latency histogram.

   Bucket boundaries follow a geometric grid b_i = v0 * gamma^i with
   gamma = 2^(1/4): four buckets per doubling, ~9% relative error at
   the bucket edges, and a fixed grid shared by every histogram so two
   histograms merge by elementwise bucket addition (associative and
   commutative by construction).  Bucket i covers (b_{i-1}, b_i];
   values at or below v0 (including zero-duration spans) land in
   bucket 0.

   The index function is computed from logarithms and then fixed up
   against the same [boundary] function, so a sample lying exactly on
   boundary b_i always lands in bucket i and [percentile] hands back
   b_i exactly — float rounding in [log]/[**] cannot shift edge
   samples into a neighbouring bucket. *)

let v0 = 1e-3

let gamma = Float.pow 2.0 0.25

(* inlined, so [index]'s compares read the edge unboxed *)
let[@inline] boundary i = v0 *. Float.pow gamma (float_of_int i)

let index x =
  if not (Float.is_finite x) then invalid_arg "Log_hist.index: not finite"
  else if x <= v0 then 0
  else begin
    let i = ref (int_of_float (ceil (log (x /. v0) /. log gamma))) in
    if !i < 0 then i := 0;
    while !i > 0 && boundary (!i - 1) >= x do
      decr i
    done;
    while boundary !i < x do
      incr i
    done;
    !i
  end

(* The running sum, minimum and maximum sit unboxed in one flat float
   array, so a write stores a double instead of allocating a box. *)
type t = { buckets : (int, int ref) Hashtbl.t; mutable count : int; stats : Float.Array.t }

let sum_at = 0

let min_at = 1

let max_at = 2

let reset_stats t =
  Float.Array.set t.stats sum_at 0.0;
  Float.Array.set t.stats min_at infinity;
  Float.Array.set t.stats max_at neg_infinity

let create () =
  let t = { buckets = Hashtbl.create 16; count = 0; stats = Float.Array.create 3 } in
  reset_stats t;
  t

let sum t = Float.Array.get t.stats sum_at

let min_v t = Float.Array.get t.stats min_at

let max_v t = Float.Array.get t.stats max_at

let[@inline] add_sum t x = Float.Array.set t.stats sum_at (sum t +. x)

let[@inline] widen t ~min ~max =
  if min < min_v t then Float.Array.set t.stats min_at min;
  if max > max_v t then Float.Array.set t.stats max_at max

let observe t x =
  let i = index x in
  (match Hashtbl.find t.buckets i with
   | c -> incr c
   | exception Not_found -> Hashtbl.add t.buckets i (ref 1));
  t.count <- t.count + 1;
  add_sum t x;
  widen t ~min:x ~max:x

let count t = t.count

let mean t = if t.count = 0 then 0.0 else sum t /. float_of_int t.count

let min_value t =
  if t.count = 0 then invalid_arg "Log_hist.min_value: empty";
  min_v t

let max_value t =
  if t.count = 0 then invalid_arg "Log_hist.max_value: empty";
  max_v t

let buckets t =
  Hashtbl.fold (fun i c acc -> (i, !c) :: acc) t.buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let percentile t p =
  if t.count = 0 then invalid_arg "Log_hist.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Log_hist.percentile: out of range";
  (* nearest rank over the cumulative bucket counts; the answer is the
     upper boundary of the bucket holding that rank, clamped to the
     observed maximum so p100 is exact *)
  let rank =
    Stdlib.max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.count)))
  in
  let rec walk seen = function
    | [] -> max_v t
    | (i, c) :: rest ->
      let seen = seen + c in
      if seen >= rank then Float.min (boundary i) (max_v t) else walk seen rest
  in
  walk 0 (buckets t)

(* In-place variant of {!merge}: folds [src]'s buckets into [dst].
   Registry handles are fixed objects, so an aggregator building a
   merged registry adds each scraped histogram into the handle it
   already registered instead of swapping in a fresh value. *)
let merge_into ~into:dst src =
  Hashtbl.iter
    (fun i c ->
      match Hashtbl.find_opt dst.buckets i with
      | Some acc -> acc := !acc + !c
      | None -> Hashtbl.add dst.buckets i (ref !c))
    src.buckets;
  dst.count <- dst.count + src.count;
  add_sum dst (sum src);
  if src.count > 0 then widen dst ~min:(min_v src) ~max:(max_v src)

let merge a b =
  let t = create () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

let clear t =
  Hashtbl.reset t.buckets;
  t.count <- 0;
  reset_stats t

let quantile_points = [ ("p50", 50.0); ("p90", 90.0); ("p95", 95.0); ("p99", 99.0); ("p999", 99.9) ]

let to_json t =
  let quantiles =
    if t.count = 0 then List.map (fun (k, _) -> (k, Json.Null)) quantile_points
    else List.map (fun (k, p) -> (k, Json.Float (percentile t p))) quantile_points
  in
  Json.Obj
    ([
       ("kind", Json.String "log_histogram");
       ("v0", Json.Float v0);
       ("gamma", Json.Float gamma);
       ("count", Json.Int t.count);
       ("sum", Json.Float (sum t));
       ("min", if t.count = 0 then Json.Null else Json.Float (min_v t));
       ("max", if t.count = 0 then Json.Null else Json.Float (max_v t));
     ]
    @ quantiles
    @ [
        ( "buckets",
          Json.List
            (List.map
               (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ])
               (buckets t)) );
      ])

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "log_histogram: missing or bad %S" name)
  in
  let* count = field "count" Json.to_int in
  let* s = field "sum" Json.to_float in
  let* bucket_list = field "buckets" Json.to_list in
  let* pairs =
    List.fold_left
      (fun acc b ->
        let* acc = acc in
        match Json.to_list b with
        | Some [ i; c ] -> (
          match (Json.to_int i, Json.to_int c) with
          | Some i, Some c -> Ok ((i, c) :: acc)
          | _ -> Error "log_histogram: bad bucket entry")
        | _ -> Error "log_histogram: bad bucket entry")
      (Ok []) bucket_list
  in
  let t = create () in
  List.iter (fun (i, c) -> Hashtbl.replace t.buckets i (ref c)) pairs;
  t.count <- count;
  Float.Array.set t.stats sum_at s;
  (match Option.bind (Json.member "min" j) Json.to_float with
   | Some m -> Float.Array.set t.stats min_at m
   | None -> ());
  (match Option.bind (Json.member "max" j) Json.to_float with
   | Some m -> Float.Array.set t.stats max_at m
   | None -> ());
  Ok t
