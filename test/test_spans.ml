(* Causal span trees and the latency toolchain built on them: span
   lifecycle accounting in the trace ring buffer (orphans at wraparound,
   begin/end mismatches, suppression, clamping), critical-path analysis,
   log-bucketed percentile math, SLO specs and the timeline sampler. *)

module Trace = P2p_sim.Trace
module Engine = P2p_sim.Engine
module Spans = P2p_obs.Spans
module Log_hist = P2p_obs.Log_hist
module Registry = P2p_obs.Registry
module Sampler = P2p_obs.Sampler
module Slo = P2p_obs.Slo
module Json = P2p_obs.Json
module Report = P2p_obs.Report
module Export = P2p_obs.Export
module Flight_recorder = P2p_obs.Flight_recorder
module Gc_stats = P2p_obs.Gc_stats
module Engine_stats = P2p_obs.Engine_stats

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- span lifecycle --- *)

let test_lifecycle () =
  let t = Trace.create ~capacity:64 () in
  let op = Trace.begin_op t ~time:0.0 ~kind:Trace.Lookup "k" in
  let root =
    match Trace.op_root_span t op with
    | Some r -> r
    | None -> Alcotest.fail "no root span"
  in
  (* parent defaults to the op's root: no threading at call sites *)
  let s1 = Trace.begin_span t ~time:1.0 ~op ~tier:"t_network" ~phase:"ring_hop" "h1" in
  Trace.end_span t ~time:3.0 s1;
  (* explicit parent nests one level deeper *)
  let s2 =
    Trace.begin_span t ~time:4.0 ~op ~tier:"s_network" ~phase:"flood" ~parent:root "f"
  in
  Trace.end_span t ~time:6.0 s2;
  Trace.mark_span t ~time:6.5 ~op ~tier:"cache" ~phase:"hit" "k";
  Trace.end_op t ~time:10.0 ~op "found";
  checkb "root closed by end_op" true (Trace.op_root_span t op = None);
  let spans = Trace.spans_of_op t op in
  checki "root + 3 children" 4 (List.length spans);
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.span_id <> root then
        checki "children parented on root" root s.Trace.parent;
      checkb "all closed" true (s.Trace.span_stop <> None))
    spans;
  let mark =
    List.find (fun (s : Trace.span) -> s.Trace.tier = "cache") spans
  in
  checkf "mark is zero-duration" 0.0 (Spans.duration mark);
  checki "no orphans" 0 (Trace.span_orphans t);
  checki "no mismatches" 0 (Trace.span_mismatches t);
  checki "no suppressions" 0 (Trace.spans_suppressed t)

(* Spans opened through a disabled trace cost nothing and return -1. *)
let test_disabled () =
  let t = Trace.disabled in
  let op = Trace.begin_op t ~time:0.0 ~kind:Trace.Insert "k" in
  let s = Trace.begin_span t ~time:1.0 ~op ~tier:"t" ~phase:"p" "x" in
  checki "disabled begin_span is -1" (-1) s;
  Trace.end_span t ~time:2.0 s;
  Trace.end_op t ~time:3.0 ~op "done";
  checki "nothing counted" 0 (Trace.total_recorded t)

(* --- orphaned spans at ring-buffer wraparound --- *)

let test_wraparound_orphans () =
  let t = Trace.create ~capacity:4 () in
  let op = Trace.begin_op t ~time:0.0 ~kind:Trace.Lookup "k" in
  (* root span occupies slot 0; three more open spans fill the ring *)
  let s1 = Trace.begin_span t ~time:1.0 ~op ~tier:"x" ~phase:"p" "1" in
  let _s2 = Trace.begin_span t ~time:2.0 ~op ~tier:"x" ~phase:"p" "2" in
  let _s3 = Trace.begin_span t ~time:3.0 ~op ~tier:"x" ~phase:"p" "3" in
  checki "no orphan while ring has room" 0 (Trace.span_orphans t);
  (* the 5th span wraps onto the still-open root: one orphan *)
  let _s4 = Trace.begin_span t ~time:4.0 ~op ~tier:"x" ~phase:"p" "4" in
  checki "wraparound evicts open root" 1 (Trace.span_orphans t);
  (* the 6th wraps onto still-open s1 *)
  let _s5 = Trace.begin_span t ~time:5.0 ~op ~tier:"x" ~phase:"p" "5" in
  checki "second eviction counted" 2 (Trace.span_orphans t);
  (* ending an evicted id is a counted no-op under its own counter — a
     capacity artifact, not lumped into orphan ends *)
  Trace.end_span t ~time:6.0 s1;
  checki "evicted end counted" 1 (Trace.evicted_ends t);
  checki "not an orphan end" 0 (Trace.orphan_ends t);
  checki "not a mismatch" 0 (Trace.span_mismatches t);
  checki "minted ids keep counting" 6 (Trace.total_recorded t)

(* The evicted/orphan split at the smallest capacities, where every mint
   recycles the single slot. *)
let test_evicted_ends_tiny () =
  let t = Trace.create ~capacity:1 () in
  let op = Trace.begin_op t ~time:0.0 ~kind:Trace.Lookup "k" in
  (* the child span evicts the root from the one slot *)
  let s1 = Trace.begin_span t ~time:1.0 ~op ~tier:"x" ~phase:"p" "1" in
  checkb "child minted" true (s1 >= 0);
  (* a second op's root evicts s1 in turn *)
  let _op2 = Trace.begin_op t ~time:2.0 ~kind:Trace.Insert "k2" in
  Trace.end_span t ~time:3.0 s1;
  checki "evicted end counted" 1 (Trace.evicted_ends t);
  checki "no orphan end" 0 (Trace.orphan_ends t);
  checki "no mismatch" 0 (Trace.span_mismatches t);
  (* a never-minted id is a true orphan end, not an eviction *)
  Trace.end_span t ~time:4.0 999;
  checki "never-minted id is an orphan end" 1 (Trace.orphan_ends t);
  checki "evicted count unchanged" 1 (Trace.evicted_ends t);
  (* capacity 2: a span still inside the retained window ends normally *)
  let t2 = Trace.create ~capacity:2 () in
  let opb = Trace.begin_op t2 ~time:0.0 ~kind:Trace.Lookup "k" in
  let a = Trace.begin_span t2 ~time:1.0 ~op:opb ~tier:"x" ~phase:"p" "a" in
  let b = Trace.begin_span t2 ~time:2.0 ~op:opb ~tier:"x" ~phase:"p" "b" in
  checkb "b evicts only the root" true (b >= 0);
  Trace.end_span t2 ~time:3.0 a;
  checki "resident end is clean" 0 (Trace.evicted_ends t2);
  checki "still no orphan ends" 0 (Trace.orphan_ends t2);
  (* reset zeroes both counters *)
  Trace.reset t;
  checki "reset clears evicted ends" 0 (Trace.evicted_ends t);
  checki "reset clears orphan ends" 0 (Trace.orphan_ends t)

(* Closed spans are recycled silently: wraparound over a completed span
   is not an orphan. *)
let test_wraparound_closed_ok () =
  let t = Trace.create ~capacity:4 () in
  let op = Trace.begin_op t ~time:0.0 ~kind:Trace.Lookup "k" in
  for i = 1 to 10 do
    let s =
      Trace.begin_span t ~time:(float_of_int i) ~op ~tier:"x" ~phase:"p" "s"
    in
    Trace.end_span t ~time:(float_of_int i +. 0.5) s
  done;
  (* only the root (still open, evicted once) orphans *)
  checki "closed spans recycle without orphaning" 1 (Trace.span_orphans t)

(* --- begin/end mismatch detection --- *)

let test_mismatches () =
  let t = Trace.create ~capacity:64 () in
  let op = Trace.begin_op t ~time:0.0 ~kind:Trace.Insert "k" in
  let s = Trace.begin_span t ~time:1.0 ~op ~tier:"x" ~phase:"p" "s" in
  Trace.end_span t ~time:2.0 s;
  Trace.end_span t ~time:3.0 s;
  checki "double end is a mismatch" 1 (Trace.span_mismatches t);
  (* ending before the start is a mismatch; the stop is floored at the
     start so the interval stays well-formed *)
  let b = Trace.begin_span t ~time:5.0 ~op ~tier:"x" ~phase:"p" "b" in
  Trace.end_span t ~time:4.0 b;
  checki "backwards end is a mismatch" 2 (Trace.span_mismatches t);
  (match Trace.spans t |> List.find_opt (fun s -> s.Trace.span_id = b) with
   | Some s -> checkf "stop floored at start" 5.0 (Option.get s.Trace.span_stop)
   | None -> Alcotest.fail "span b lost");
  (* -1 (a suppressed begin's return) is always a safe no-op *)
  Trace.end_span t ~time:6.0 (-1);
  checki "-1 end is a no-op" 2 (Trace.span_mismatches t);
  checki "-1 end is not an orphan end" 0 (Trace.orphan_ends t)

(* --- suppression and clamping keep children inside parents --- *)

let test_suppression_and_clamp () =
  let t = Trace.create ~capacity:64 () in
  let op = Trace.begin_op t ~time:0.0 ~kind:Trace.Lookup "k" in
  (* a child still open when the op ends: its stop clamps to the root's *)
  let late = Trace.begin_span t ~time:2.0 ~op ~tier:"x" ~phase:"p" "late" in
  Trace.end_op t ~time:5.0 ~op "done";
  Trace.end_span t ~time:8.0 late;
  checki "late stop clamped" 1 (Trace.spans_clamped t);
  (match Trace.spans t |> List.find_opt (fun s -> s.Trace.span_id = late) with
   | Some s -> checkf "clamped to root stop" 5.0 (Option.get s.Trace.span_stop)
   | None -> Alcotest.fail "late span lost");
  (* work attributed to a finished op is suppressed, not recorded *)
  let dead = Trace.begin_span t ~time:9.0 ~op ~tier:"x" ~phase:"p" "dead" in
  checki "begin after end_op returns -1" (-1) dead;
  checki "suppression counted" 1 (Trace.spans_suppressed t);
  (* same under an explicitly closed parent *)
  let op2 = Trace.begin_op t ~time:10.0 ~kind:Trace.Insert "k2" in
  let p = Trace.begin_span t ~time:11.0 ~op:op2 ~tier:"x" ~phase:"p" "p" in
  Trace.end_span t ~time:12.0 p;
  let c =
    Trace.begin_span t ~time:13.0 ~op:op2 ~tier:"x" ~phase:"p" ~parent:p "c"
  in
  checki "begin under closed parent returns -1" (-1) c;
  checki "second suppression" 2 (Trace.spans_suppressed t)

(* --- critical-path analysis --- *)

let test_critical_path_disjoint () =
  let t = Trace.create ~capacity:64 () in
  let op = Trace.begin_op t ~time:0.0 ~kind:Trace.Lookup "k" in
  let a = Trace.begin_span t ~time:1.0 ~op ~tier:"t_network" ~phase:"ring_hop" "a" in
  Trace.end_span t ~time:3.0 a;
  let b = Trace.begin_span t ~time:4.0 ~op ~tier:"s_network" ~phase:"flood" "b" in
  Trace.end_span t ~time:6.0 b;
  Trace.end_op t ~time:10.0 ~op "found";
  match Spans.completed t with
  | [ o ] ->
    checks "kind is the wire name" "lookup" o.Spans.kind;
    checkf "total" 10.0 o.Spans.total_ms;
    checkf "critical = sum of disjoint segments" 4.0 o.Spans.critical_ms;
    checki "two segments" 2 (List.length o.Spans.chain);
    (match o.Spans.chain with
     | [ first; second ] ->
       checks "earliest segment first" "ring_hop" first.Spans.seg_phase;
       checks "then the flood" "flood" second.Spans.seg_phase;
       checkf "segment durations" 2.0 first.Spans.seg_ms;
       checkf "segment durations" 2.0 second.Spans.seg_ms
     | _ -> Alcotest.fail "chain shape");
    checki "span_count" 2 o.Spans.span_count
  | ops -> Alcotest.failf "expected 1 completed op, got %d" (List.length ops)

let test_critical_path_overlap () =
  let t = Trace.create ~capacity:64 () in
  let op = Trace.begin_op t ~time:0.0 ~kind:Trace.Insert "k" in
  (* overlapping children: the sweep charges the later-stopping one in
     full, then skips the other (it stops after the cursor) *)
  let a = Trace.begin_span t ~time:1.0 ~op ~tier:"x" ~phase:"p" "a" in
  let b = Trace.begin_span t ~time:2.0 ~op ~tier:"x" ~phase:"q" "b" in
  Trace.end_span t ~time:5.0 a;
  Trace.end_span t ~time:6.0 b;
  Trace.end_op t ~time:10.0 ~op "done";
  (match Spans.completed t with
   | [ o ] ->
     checkf "overlap not double-charged" 4.0 o.Spans.critical_ms;
     checkb "critical <= total" true (o.Spans.critical_ms <= o.Spans.total_ms)
   | _ -> Alcotest.fail "expected 1 op");
  (* an op with no children has an empty chain and zero critical path *)
  let op2 = Trace.begin_op t ~time:20.0 ~kind:Trace.Lookup "k2" in
  Trace.end_op t ~time:21.0 ~op:op2 "done";
  match Spans.completed t with
  | [ _; o2 ] ->
    checkf "no children: critical 0" 0.0 o2.Spans.critical_ms;
    checkf "total still measured" 1.0 o2.Spans.total_ms
  | ops -> Alcotest.failf "expected 2 ops, got %d" (List.length ops)

(* Spans.record folds the analysis into the registry; the totals come
   from the op-completion listener every user path installs. *)
let test_record_into_registry () =
  let t = Trace.create ~capacity:64 () in
  let reg = Registry.create () in
  Spans.record_totals reg t;
  let op = Trace.begin_op t ~time:0.0 ~kind:Trace.Lookup "k" in
  let a = Trace.begin_span t ~time:1.0 ~op ~tier:"t_network" ~phase:"ring_hop" "a" in
  Trace.end_span t ~time:3.0 a;
  Trace.end_op t ~time:4.0 ~op "found";
  Spans.record reg t;
  let h = Registry.log_histogram reg ~subsystem:"latency" ~name:"lookup_total_ms" in
  checki "one op observed" 1 (Log_hist.count h);
  checkf "tier attribution gauge" 2.0
    (Registry.gauge_value
       (Registry.gauge reg ~subsystem:"latency" ~name:"lookup_tier_t_network_ms"));
  checkf "health gauge mirrors trace counters" 0.0
    (Registry.gauge_value
       (Registry.gauge reg ~subsystem:"trace" ~name:"span_mismatches"))

(* --- log-bucketed percentile math --- *)

let test_log_hist_boundaries () =
  (* the grid is exact at boundaries: index (boundary i) = i *)
  for i = 0 to 80 do
    checki
      (Printf.sprintf "index(boundary %d)" i)
      i
      (Log_hist.index (Log_hist.boundary i))
  done;
  (* just above a boundary falls into the next bucket *)
  checki "above boundary -> next bucket" 41
    (Log_hist.index (Log_hist.boundary 40 *. 1.0001));
  checki "at or below v0 -> bucket 0" 0 (Log_hist.index (Log_hist.v0 /. 2.0));
  checkb "index raises on nan" true
    (try
       ignore (Log_hist.index Float.nan : int);
       false
     with Invalid_argument _ -> true)

let test_log_hist_percentiles () =
  let h = Log_hist.create () in
  (* a single sample is reported back exactly, at every percentile:
     the bucket boundary is clamped to the observed max *)
  Log_hist.observe h 7.0;
  List.iter
    (fun p -> checkf (Printf.sprintf "single sample p%g" p) 7.0 (Log_hist.percentile h p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  (* samples sitting exactly on boundaries come back exactly *)
  let b4 = Log_hist.boundary 4 and b8 = Log_hist.boundary 8 and b12 = Log_hist.boundary 12 in
  let h = Log_hist.create () in
  List.iter (Log_hist.observe h) [ b4; b8; b12 ];
  checkf "p50 on boundary values" b8 (Log_hist.percentile h 50.0);
  checkf "p99 on boundary values" b12 (Log_hist.percentile h 99.0);
  checkf "p1 on boundary values" b4 (Log_hist.percentile h 1.0);
  (* percentiles are monotone in p *)
  let h2 = Log_hist.create () in
  for i = 1 to 1000 do
    Log_hist.observe h2 (float_of_int i)
  done;
  let last = ref 0.0 in
  List.iter
    (fun p ->
      let v = Log_hist.percentile h2 p in
      checkb (Printf.sprintf "monotone at p%g" p) true (v >= !last);
      last := v)
    [ 10.0; 50.0; 90.0; 95.0; 99.0; 99.9 ];
  checkb "empty percentile raises" true
    (try
       ignore (Log_hist.percentile (Log_hist.create ()) 50.0 : float);
       false
     with Invalid_argument _ -> true)

let test_log_hist_merge () =
  let fill seed n =
    let h = Log_hist.create () in
    let rng = P2p_sim.Rng.create seed in
    for _ = 1 to n do
      Log_hist.observe h (P2p_sim.Rng.float rng 5000.0 +. 0.01)
    done;
    h
  in
  let a = fill 1 200 and b = fill 2 300 and c = fill 3 150 in
  let l = Log_hist.merge (Log_hist.merge a b) c in
  let r = Log_hist.merge a (Log_hist.merge b c) in
  (* associative: identical buckets, counts, moments, percentiles *)
  checkb "merge associative (buckets)" true (Log_hist.buckets l = Log_hist.buckets r);
  checki "merge associative (count)" (Log_hist.count l) (Log_hist.count r);
  checkf "merge associative (sum)" (Log_hist.sum l) (Log_hist.sum r);
  checkf "merge associative (p99)" (Log_hist.percentile l 99.0) (Log_hist.percentile r 99.0);
  (* commutative, and counts add *)
  let ab = Log_hist.merge a b and ba = Log_hist.merge b a in
  checkb "merge commutative" true (Log_hist.buckets ab = Log_hist.buckets ba);
  checki "counts add" 500 (Log_hist.count ab);
  checkf "min survives merge" (Float.min (Log_hist.min_value a) (Log_hist.min_value b))
    (Log_hist.min_value ab);
  (* merge with empty is identity on the buckets *)
  let e = Log_hist.create () in
  checkb "empty is identity" true
    (Log_hist.buckets (Log_hist.merge a e) = Log_hist.buckets a);
  (* JSON round-trip preserves the distribution *)
  match Log_hist.of_json (Log_hist.to_json a) with
  | Ok a' ->
    checkb "json round-trip (buckets)" true (Log_hist.buckets a = Log_hist.buckets a');
    checkf "json round-trip (p95)" (Log_hist.percentile a 95.0)
      (Log_hist.percentile a' 95.0)
  | Error e -> Alcotest.failf "of_json failed: %s" e

(* --- SLO specs --- *)

let test_slo () =
  (match Slo.parse "lookup:p99<=40" with
   | Ok s ->
     checks "target" "lookup" s.Slo.target;
     checkf "quantile" 99.0 s.Slo.quantile;
     checkf "limit" 40.0 s.Slo.limit
   | Error e -> Alcotest.failf "parse failed: %s" e);
  checkb "explicit metric path parses" true
    (match Slo.parse "latency/lookup_total_ms:p95<=25" with Ok _ -> true | Error _ -> false);
  checkb "garbage rejected" true
    (match Slo.parse "lookup p99 40" with Ok _ -> false | Error _ -> true);
  let reg = Registry.create () in
  let h = Registry.log_histogram reg ~subsystem:"latency" ~name:"lookup_total_ms" in
  List.iter (Log_hist.observe h) [ 10.0; 20.0; 30.0 ];
  let lines = ref [] in
  let print l = lines := l :: !lines in
  checkb "pass under the limit" true
    (Slo.enforce reg ~specs:[ "lookup:p99<=1000" ] ~print);
  checkb "fail over the limit" false
    (Slo.enforce reg ~specs:[ "lookup:p99<=5" ] ~print);
  checkb "unresolvable target fails closed" false
    (Slo.enforce reg ~specs:[ "no_such_op:p99<=5" ] ~print);
  checkb "unparsable spec fails closed" false
    (Slo.enforce reg ~specs:[ "nonsense" ] ~print);
  checki "one line per check" 4 (List.length !lines)

(* --- timeline sampler --- *)

let test_sampler () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~subsystem:"s" ~name:"n" in
  let s = Sampler.create ~interval:10.0 reg in
  Sampler.poll s ~now:0.0;
  checki "first poll always samples" 1 (Sampler.count s);
  Registry.incr c;
  Sampler.poll s ~now:5.0;
  checki "before due: no sample" 1 (Sampler.count s);
  Sampler.poll s ~now:10.0;
  Sampler.poll s ~now:10.0;
  checki "due point samples once" 2 (Sampler.count s);
  Sampler.poll s ~now:47.0;
  checki "late poll takes one sample" 3 (Sampler.count s);
  (match Sampler.samples s with
   | (t0, _) :: _ -> checkf "timestamps preserved" 0.0 t0
   | [] -> Alcotest.fail "no samples");
  (* one JSON object per line *)
  let lines =
    Sampler.to_string s |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  checki "jsonl line per sample" 3 (List.length lines);
  List.iter
    (fun l ->
      checkb "line parses as json" true
        (match Json.parse l with Ok _ -> true | Error _ -> false))
    lines;
  checkb "sampler rejects bad interval" true
    (try
       ignore (Sampler.create ~interval:0.0 reg : Sampler.t);
       false
     with Invalid_argument _ -> true)

(* --- head-based op sampling --- *)

(* n ops, each with one timed child, one mark, and a deterministic total
   latency (4 + i mod 7 ms). *)
let run_ops t n =
  for i = 0 to n - 1 do
    let t0 = float_of_int (10 * i) in
    let op = Trace.begin_op t ~time:t0 ~kind:Trace.Lookup (Printf.sprintf "k%d" i) in
    let a =
      Trace.begin_span t ~time:(t0 +. 1.0) ~op ~tier:"t_network" ~phase:"ring_hop" "a"
    in
    Trace.end_span t ~time:(t0 +. 2.0) a;
    Trace.mark_span t ~time:(t0 +. 3.0) ~op ~tier:"cache" ~phase:"miss" "m";
    Trace.end_op t ~time:(t0 +. 4.0 +. float_of_int (i mod 7)) ~op "done"
  done

(* An op is all-or-nothing: a sampled op carries its whole span tree; an
   unsampled op leaves no trace at all — never a half tree. *)
let test_sampling_no_half_trees () =
  let t = Trace.create ~capacity:4096 ~sample_rate:0.5 ~sample_seed:42 () in
  run_ops t 200;
  let s = Trace.ops_sampled t in
  checkb "some ops sampled" true (s > 0);
  checkb "some ops unsampled" true (s < 200);
  checkb "skipped spans counted" true (Trace.spans_unsampled t > 0);
  for op = 0 to 199 do
    let nspans = List.length (Trace.spans_of_op t op) in
    if Trace.sampled t op then
      checki (Printf.sprintf "sampled op %d has its full tree" op) 3 nspans
    else checki (Printf.sprintf "unsampled op %d has no spans" op) 0 nspans
  done;
  checki "sampling is not suppression" 0 (Trace.spans_suppressed t);
  checki "sampling is not orphaning" 0 (Trace.span_orphans t)

(* The sampled set is a pure hash of the op id: equal seeds pick equal
   sets (replays trace the ops the original run traced), and the rate
   endpoints are total. *)
let test_sampling_deterministic () =
  let sampled_set seed =
    let t = Trace.create ~capacity:16 ~sample_rate:0.3 ~sample_seed:seed () in
    List.init 300 (fun op -> Trace.sampled t op)
  in
  checkb "same seed, same sampled set" true (sampled_set 7 = sampled_set 7);
  checkb "different seed, different sampled set" true
    (sampled_set 7 <> sampled_set 8);
  let t0 = Trace.create ~capacity:16 ~sample_rate:0.0 () in
  run_ops t0 10;
  checki "rate 0 samples nothing" 0 (Trace.ops_sampled t0);
  checki "rate 0 mints no spans" 0 (Trace.total_recorded t0);
  let t1 = Trace.create ~capacity:1024 ~sample_rate:1.0 () in
  run_ops t1 10;
  checki "rate 1 samples everything" 10 (Trace.ops_sampled t1);
  checkb "rate outside [0,1] rejected" true
    (try
       ignore (Trace.create ~capacity:4 ~sample_rate:1.5 () : Trace.t);
       false
     with Invalid_argument _ -> true)

let observe_exact t reg =
  Trace.on_op_complete t (fun (c : Trace.op_completion) ->
      Log_hist.observe
        (Registry.log_histogram reg ~subsystem:"latency"
           ~name:(c.Trace.comp_kind ^ "_total_ms"))
        (c.Trace.comp_stop -. c.Trace.comp_start))

(* The exact-latency path: listener-fed totals count 100% of ops and are
   bit-identical at every sample rate, so SLO gates never depend on the
   rate. *)
let test_sampling_exact_latency () =
  let totals rate =
    let t = Trace.create ~capacity:4096 ~sample_rate:rate ~sample_seed:3 () in
    let reg = Registry.create () in
    observe_exact t reg;
    run_ops t 250;
    let h = Registry.log_histogram reg ~subsystem:"latency" ~name:"lookup_total_ms" in
    (Log_hist.count h, Log_hist.percentile h 50.0, Log_hist.percentile h 99.0)
  in
  let full = totals 1.0 and sparse = totals 0.02 and off = totals 0.0 in
  checkb "totals identical at rate 0.02" true (full = sparse);
  checkb "totals identical at rate 0" true (full = off);
  (match full with n, _, _ -> checki "every op counted" 250 n);
  (* and Spans.record leaves the totals to the listener: no double
     counting when both run over the same trace *)
  let t = Trace.create ~capacity:4096 () in
  let reg = Registry.create () in
  observe_exact t reg;
  run_ops t 50;
  Spans.record reg t;
  let h = Registry.log_histogram reg ~subsystem:"latency" ~name:"lookup_total_ms" in
  checki "record + listener count once" 50 (Log_hist.count h);
  checkf "sample_rate gauge exported" 1.0
    (Registry.gauge_value (Registry.gauge reg ~subsystem:"trace" ~name:"sample_rate"))

(* --- flight recorder --- *)

let test_flight_recorder () =
  let fr = Flight_recorder.create ~capacity:4 () in
  let t = Trace.create ~capacity:256 ~sample_rate:0.5 ~sample_seed:1 () in
  Trace.on_op_complete t (Flight_recorder.observe fr);
  run_ops t 10;
  checki "ring bounded at capacity" 4 (Flight_recorder.length fr);
  checki "sees 100% of completions" 10 (Flight_recorder.total_recorded fr);
  Flight_recorder.record_audit fr ~at:99.0 ~check:"ring" ~severity:"audit-error"
    ~detail:"gap";
  (match List.rev (Flight_recorder.entries fr) with
   | Flight_recorder.Audit { check; _ } :: _ -> checks "audit entry newest" "ring" check
   | _ -> Alcotest.fail "expected the audit entry last");
  let lines =
    Flight_recorder.to_jsonl ~reason:"test" fr
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  checki "header + one line per retained entry" 5 (List.length lines);
  List.iter
    (fun l ->
      checkb "jsonl line parses" true
        (match Json.parse l with Ok _ -> true | Error _ -> false))
    lines;
  (* dump writes the ring + chrome trace + metrics, creating the dir *)
  let dir = Filename.temp_file "flight" "" in
  Sys.remove dir;
  let reg = Registry.create () in
  let files = Flight_recorder.dump fr ~trace:t ~registry:reg ~dir ~reason:"slo" () in
  checki "jsonl + chrome + metrics" 3 (List.length files);
  List.iter
    (fun f -> checkb (Filename.basename f ^ " exists") true (Sys.file_exists f))
    files;
  (match files with
   | jsonl :: chrome :: _ ->
     checkb "dump names carry the reason" true
       (Filename.basename jsonl = "flight-slo.jsonl");
     checkb "chrome dump parses as json" true
       (match Json.parse (Export.read_file chrome) with
        | Ok _ -> true
        | Error _ -> false)
   | _ -> Alcotest.fail "missing dump files");
  List.iter Sys.remove files;
  Sys.rmdir dir;
  checkb "zero capacity rejected" true
    (try
       ignore (Flight_recorder.create ~capacity:0 () : Flight_recorder.t);
       false
     with Invalid_argument _ -> true)

(* --- pull-style gauges: sampler hook, gc and engine stats --- *)

let test_sampler_hook () =
  let reg = Registry.create () in
  let g = Registry.gauge reg ~subsystem:"gc" ~name:"x" in
  let pulls = ref 0 in
  let s =
    Sampler.create ~interval:10.0
      ~on_sample:(fun () ->
        incr pulls;
        Registry.set g (float_of_int !pulls))
      reg
  in
  Sampler.poll s ~now:0.0;
  Sampler.poll s ~now:5.0;
  Sampler.poll s ~now:10.0;
  checki "hook fires once per snapshot, not per poll" 2 !pulls;
  (* the snapshot sees the value the hook just refreshed *)
  match List.rev (Sampler.samples s) with
  | (_, line) :: _ ->
    (match Option.bind (Json.member "gauges" line) (Json.member "gc/x") with
     | Some v ->
       checkf "gauge refreshed before snapshot" 2.0
         (Option.value ~default:0.0 (Json.to_float v))
     | None -> Alcotest.fail "gc/x gauge missing from snapshot")
  | [] -> Alcotest.fail "no samples"

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let test_runtime_gauges () =
  let reg = Registry.create () in
  let gc = Gc_stats.create reg in
  ignore (Sys.opaque_identity (Array.make 100_000 0.0) : float array);
  Gc_stats.update gc;
  let gv name = Registry.gauge_value (Registry.gauge reg ~subsystem:"gc" ~name) in
  checkb "heap gauge populated" true (gv "heap_mb" > 0.0);
  checkb "allocation tracked" true (gv "allocated_mb_total" > 0.0);
  checkb "collection counts non-negative" true (gv "minor_collections" >= 0.0);
  let e = Engine.create ~seed:1 () in
  for i = 0 to 99 do
    ignore (Engine.schedule e ~delay:(float_of_int (i mod 10)) (fun () -> ()) : Engine.handle)
  done;
  Engine.run e;
  Engine_stats.record reg e;
  checkf "engine gauge recorded" 100.0
    (Registry.gauge_value (Registry.gauge reg ~subsystem:"engine" ~name:"events_executed"));
  (* the report renders the runtime header without any flag *)
  checkb "runtime header rendered" true
    (contains (Report.render (Registry.doc reg)) "runtime: alloc")

(* --- cross-process identity: extern ops and span-id ranges --- *)

let test_extern_op_adopts_wire_id () =
  (* A live node's op identity is the wire request id, minted by the
     client — begin_extern_op must adopt it, root a span tree under it,
     and keep locally-minted op ids from ever colliding with it. *)
  let t = Trace.create ~capacity:256 () in
  Trace.begin_extern_op t ~time:1.0 ~op:5_000 ~kind:Trace.Lookup ~src:9 ~dst:2
    "needle";
  let root =
    match Trace.op_root_span t 5_000 with
    | Some r -> r
    | None -> Alcotest.fail "extern op has no root span"
  in
  let hop =
    Trace.begin_span t ~time:2.0 ~op:5_000 ~tier:"t_network" ~phase:"ring_hop"
      ~parent:root "needle"
  in
  Trace.end_span t ~time:3.0 hop;
  Trace.end_op t ~time:4.0 ~op:5_000 "found";
  checki "root + hop recorded" 2 (List.length (Trace.spans_of_op t 5_000));
  (* next local op must not reuse the extern id *)
  let local = Trace.begin_op t ~time:5.0 ~kind:Trace.Insert "k" in
  checkb "local op ids advance past extern ids" true (local > 5_000)

let test_extern_op_sampling_agrees () =
  (* Same rate + seed on two traces (two processes): the sampling
     decision for one wire op id must agree, whichever side asks. *)
  let mk first_span_id =
    Trace.create ~capacity:256 ~sample_rate:0.3 ~sample_seed:7 ~first_span_id ()
  in
  let a = mk 0 and b = mk (1 lsl 40) in
  let disagreements = ref 0 in
  for op = 0 to 999 do
    if Trace.sampled a op <> Trace.sampled b op then incr disagreements
  done;
  checki "cluster-wide sampling decisions agree" 0 !disagreements;
  (* and an unsampled extern op opens no span tree *)
  let unsampled =
    let rec find op = if Trace.sampled a op then find (op + 1) else op in
    find 0
  in
  Trace.begin_extern_op a ~time:1.0 ~op:unsampled ~kind:Trace.Lookup "k";
  checkb "unsampled extern op has no root" true
    (Trace.op_root_span a unsampled = None)

let test_first_span_id_ranges_disjoint () =
  (* Per-process span-id ranges: node k mints from k * 2^40, so a span
     id arriving in a wire trace header never aliases a local span. *)
  let stride = 1 lsl 40 in
  let node_spans node =
    let t = Trace.create ~capacity:64 ~first_span_id:(node * stride) () in
    let op = Trace.begin_op t ~time:0.0 ~kind:Trace.Lookup "k" in
    let s =
      Trace.begin_span t ~time:1.0 ~op ~tier:"t_network" ~phase:"hop" "k"
    in
    Trace.end_span t ~time:2.0 s;
    Trace.end_op t ~time:3.0 ~op "done";
    List.map (fun (sp : Trace.span) -> sp.Trace.span_id) (Trace.spans_of_op t op)
  in
  let s0 = node_spans 0 and s3 = node_spans 3 in
  List.iter
    (fun id -> checkb "node 0 ids in node 0's range" true (id < stride))
    s0;
  List.iter
    (fun id ->
      checkb "node 3 ids in node 3's range" true
        (id >= 3 * stride && id < 4 * stride))
    s3;
  (* remote parents (outside the local range) are kept verbatim *)
  let t = Trace.create ~capacity:64 ~first_span_id:0 () in
  Trace.begin_extern_op t ~time:0.0 ~op:42 ~kind:Trace.Insert "k";
  let remote_parent = (3 * stride) + 5 in
  let s =
    Trace.begin_span t ~time:1.0 ~op:42 ~tier:"t_network" ~phase:"ring_hop"
      ~parent:remote_parent "k"
  in
  Trace.end_span t ~time:2.0 s;
  Trace.end_op t ~time:3.0 ~op:42 "done";
  let hop =
    List.find
      (fun (sp : Trace.span) -> sp.Trace.phase = "ring_hop")
      (Trace.spans_of_op t 42)
  in
  checki "remote parent preserved for the merger" remote_parent hop.Trace.parent

let suite =
  [
    Alcotest.test_case "span lifecycle" `Quick test_lifecycle;
    Alcotest.test_case "disabled trace" `Quick test_disabled;
    Alcotest.test_case "wraparound orphans" `Quick test_wraparound_orphans;
    Alcotest.test_case "evicted ends at tiny capacities" `Quick test_evicted_ends_tiny;
    Alcotest.test_case "wraparound recycles closed" `Quick test_wraparound_closed_ok;
    Alcotest.test_case "begin/end mismatches" `Quick test_mismatches;
    Alcotest.test_case "suppression and clamping" `Quick test_suppression_and_clamp;
    Alcotest.test_case "critical path disjoint" `Quick test_critical_path_disjoint;
    Alcotest.test_case "critical path overlap" `Quick test_critical_path_overlap;
    Alcotest.test_case "record into registry" `Quick test_record_into_registry;
    Alcotest.test_case "log-hist bucket boundaries" `Quick test_log_hist_boundaries;
    Alcotest.test_case "log-hist percentiles" `Quick test_log_hist_percentiles;
    Alcotest.test_case "log-hist merge" `Quick test_log_hist_merge;
    Alcotest.test_case "slo specs" `Quick test_slo;
    Alcotest.test_case "timeline sampler" `Quick test_sampler;
    Alcotest.test_case "sampling: no half trees" `Quick test_sampling_no_half_trees;
    Alcotest.test_case "sampling: deterministic" `Quick test_sampling_deterministic;
    Alcotest.test_case "sampling: exact latency" `Quick test_sampling_exact_latency;
    Alcotest.test_case "flight recorder" `Quick test_flight_recorder;
    Alcotest.test_case "sampler on_sample hook" `Quick test_sampler_hook;
    Alcotest.test_case "runtime gauges" `Quick test_runtime_gauges;
    Alcotest.test_case "extern op adopts the wire id" `Quick
      test_extern_op_adopts_wire_id;
    Alcotest.test_case "extern sampling agrees cluster-wide" `Quick
      test_extern_op_sampling_agrees;
    Alcotest.test_case "per-process span-id ranges disjoint" `Quick
      test_first_span_id_ranges_disjoint;
  ]
