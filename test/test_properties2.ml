(* Second property batch: the extension features and tooling.

   - cache: capacity bound, freshness, and hit consistency under random
     put/find/advance sequences;
   - trace: ring-buffer retention law under random record streams;
   - data conservation through the spreading walk: inserts never lose or
     duplicate items whatever the tree shape;
   - scenario runner: invariants hold and population arithmetic balances
     for arbitrary scripts;
   - ascii plots: never raise, always bounded output;
   - the incremental latency_sanity check equals a fresh scan on random
     span programs. *)

module Cache = Hybrid_p2p.Cache
module Trace = P2p_sim.Trace
module Ascii_plot = P2p_stats.Ascii_plot
module Scenario = P2p_scenario.Scenario
module Pipeline = P2p_scenario.Pipeline
module H = Hybrid_p2p.Hybrid
module Checks = P2p_audit.Checks

(* --- cache laws --- *)

type cache_op = Put of string * float | Find of string * float

let cache_op_gen =
  QCheck.Gen.(
    let key = map (Printf.sprintf "k%d") (int_bound 8) in
    let time = float_bound_inclusive 100.0 in
    oneof
      [ map2 (fun k t -> Put (k, t)) key time; map2 (fun k t -> Find (k, t)) key time ])

let cache_script_arb =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap=%d ops=%d" cap (List.length ops))
    QCheck.Gen.(pair (int_range 1 5) (list_size (int_range 1 60) cache_op_gen))

let prop_cache_capacity_bound =
  QCheck.Test.make ~name:"cache size never exceeds capacity" ~count:300 cache_script_arb
    (fun (capacity, ops) ->
      let c = Cache.create ~capacity in
      List.for_all
        (fun op ->
          (match op with
           | Put (key, now) -> Cache.put c ~now ~lifetime:10.0 ~key ~value:key
           | Find (key, now) -> ignore (Cache.find c ~now ~key : string option));
          Cache.size c <= capacity)
        ops)

let prop_cache_never_serves_stale =
  QCheck.Test.make ~name:"cache never serves an expired entry" ~count:300
    cache_script_arb (fun (capacity, ops) ->
      let c = Cache.create ~capacity in
      (* remember the freshest expiry per key *)
      let expiry = Hashtbl.create 8 in
      List.for_all
        (fun op ->
          match op with
          | Put (key, now) ->
            Cache.put c ~now ~lifetime:10.0 ~key ~value:key;
            Hashtbl.replace expiry key (now +. 10.0);
            true
          | Find (key, now) -> (
            match Cache.find c ~now ~key with
            | Some _ ->
              (* a hit implies the freshest put has not expired *)
              (match Hashtbl.find_opt expiry key with
               | Some e -> e > now
               | None -> false)
            | None -> true))
        ops)

(* --- trace retention --- *)

let prop_trace_retention =
  QCheck.Test.make ~name:"trace keeps exactly the newest min(total, capacity) spans"
    ~count:300
    (QCheck.pair (QCheck.make (QCheck.Gen.int_range 1 8)) QCheck.small_nat)
    (fun (capacity, n) ->
      QCheck.assume (n <= 200);
      let t = Trace.create ~capacity () in
      Helpers.completed_ops t n;
      let spans = Trace.spans t in
      Trace.total_recorded t = n
      && Helpers.span_labels spans
         = List.init (min n capacity) (fun i -> string_of_int (n - min n capacity + i + 1)))

(* --- data conservation through placement --- *)

let prop_insert_conserves_items =
  QCheck.Test.make ~name:"inserts conserve items under both placement schemes"
    ~count:12
    (QCheck.triple QCheck.small_int QCheck.bool (QCheck.make (QCheck.Gen.int_range 10 60)))
    (fun (seed, spread, n_items) ->
      let placement =
        if spread then Hybrid_p2p.Config.Spread_to_neighbors
        else Hybrid_p2p.Config.Store_at_tpeer
      in
      let config = { Hybrid_p2p.Config.default with Hybrid_p2p.Config.placement } in
      let h = H.create_star ~seed ~peers:128 ~config () in
      ignore (H.grow h ~count:40 ~s_fraction:0.7 : Hybrid_p2p.Peer.t array);
      for i = 0 to n_items - 1 do
        H.insert h ~from:(H.random_peer h) ~key:(Printf.sprintf "c%d" i) ~value:"v" ()
      done;
      H.run h;
      H.total_items h = n_items && Result.is_ok (Helpers.final_invariants h))

(* --- scenario runner --- *)

let scenario_action_gen =
  QCheck.Gen.frequency
    [ (3, QCheck.Gen.return Scenario.Join_t);
      (4, QCheck.Gen.return Scenario.Join_s);
      (2, QCheck.Gen.return Scenario.Leave_random);
      (1, QCheck.Gen.return Scenario.Crash_random);
      (1, QCheck.Gen.return Scenario.Repair);
      (2, QCheck.Gen.map (fun n -> Scenario.Insert_items (n mod 20)) QCheck.Gen.small_nat);
      (2, QCheck.Gen.map (fun n -> Scenario.Lookup_items (n mod 20)) QCheck.Gen.small_nat);
      (1, QCheck.Gen.return Scenario.Settle) ]

let scenario_arb =
  QCheck.make
    ~print:(fun (seed, script) ->
      Printf.sprintf "seed=%d actions=%d" seed (List.length script))
    QCheck.Gen.(pair small_nat (list_size (int_range 1 25) scenario_action_gen))

let prop_scenario_always_checkable =
  QCheck.Test.make ~name:"scenario scripts always end with invariants intact" ~count:20
    scenario_arb (fun (seed, script) ->
      let h = H.create_star ~seed:(seed + 1) ~peers:200 () in
      let report = Scenario.exec (Pipeline.attach h) ~seed ~script in
      Result.is_ok report.Scenario.invariants)

let prop_scenario_population_arithmetic =
  QCheck.Test.make ~name:"scenario population = joined - left - crashed" ~count:20
    scenario_arb (fun (seed, script) ->
      let h = H.create_star ~seed:(seed + 2) ~peers:200 () in
      let report = Scenario.exec (Pipeline.attach h) ~seed ~script in
      report.Scenario.final_peers
      = report.Scenario.joined - report.Scenario.left - report.Scenario.crashed)

let prop_scenario_lookups_accounted =
  QCheck.Test.make ~name:"scenario lookups all reported" ~count:20 scenario_arb
    (fun (seed, script) ->
      let requested =
        List.fold_left
          (fun acc -> function Scenario.Lookup_items n -> acc + n | _ -> acc)
          0 script
      in
      let h = H.create_star ~seed:(seed + 3) ~peers:200 () in
      let report = Scenario.exec (Pipeline.attach h) ~seed ~script in
      report.Scenario.lookups_ok + report.Scenario.lookups_failed = requested)

(* --- plots never fail --- *)

let series_gen =
  QCheck.Gen.(
    list_size (int_range 0 4)
      (map
         (fun pts -> { Ascii_plot.name = "s"; points = pts })
         (list_size (int_range 0 20)
            (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))))

let prop_plot_total_function =
  QCheck.Test.make ~name:"line_chart is total and bounded" ~count:300
    (QCheck.make series_gen) (fun series ->
      let chart = Ascii_plot.line_chart ~width:40 ~height:8 ~series () in
      String.length chart > 0 && String.length chart < 20_000)

let prop_histogram_total_function =
  QCheck.Test.make ~name:"histogram is total" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 10)
           (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 5))
              (float_bound_inclusive 50.0))))
    (fun bars ->
      String.length (Ascii_plot.histogram ~width:20 ~bars ()) > 0)

(* --- incremental latency_sanity --- *)

(* A random span program on a small ring: ops open and close, spans start
   before their parent or end after it, name closed or not-yet-minted
   parents, end twice or backwards, and the trace is sometimes cleared
   or reset.  At random instants the check's long-lived state must give
   exactly what a fresh full scan gives. *)
let prop_latency_sanity_incremental =
  QCheck.Test.make ~name:"latency_sanity: stateful ticks equal fresh scans" ~count:200
    (QCheck.pair (QCheck.make (QCheck.Gen.int_range 4 40)) QCheck.small_nat)
    (fun (capacity, seed) ->
      let rnd = Random.State.make [| seed |] in
      let trace = Trace.create ~capacity () in
      let w = H.world (H.create_star ~seed:1 ~peers:4 ~trace ()) in
      let check = Option.get (Checks.find "latency_sanity") in
      let state = Checks.state () in
      let ops = ref [] and spans = ref [] and time = ref 0.0 and agree = ref true in
      let pick l = List.nth l (Random.State.int rnd (List.length l)) in
      for _ = 1 to 300 do
        time := !time +. Random.State.float rnd 1.0;
        let t = !time in
        (match Random.State.int rnd 20 with
         | 0 | 1 | 2 -> ops := Trace.begin_op trace ~time:t ~kind:Trace.Lookup "op" :: !ops
         | (3 | 4) when !ops <> [] -> Trace.end_op trace ~time:t ~op:(pick !ops) "done"
         | (5 | 6 | 7 | 8 | 9 | 10) when !ops <> [] ->
           let parent =
             match Random.State.int rnd 4 with
             | 0 when !spans <> [] -> Some (pick !spans)
             | 1 -> Some (snd (Trace.span_window trace) + Random.State.int rnd 3)
             | _ -> None
           in
           let id =
             Trace.begin_span trace ~time:(t -. Random.State.float rnd 2.0) ~op:(pick !ops)
               ~tier:"t" ~phase:"p" ?parent "s"
           in
           if id >= 0 then spans := id :: !spans
         | (11 | 12 | 13 | 14 | 15) when !spans <> [] ->
           Trace.end_span trace ~time:(t +. Random.State.float rnd 3.0 -. 1.0) (pick !spans)
         | 16 when !ops <> [] ->
           Trace.mark_span trace ~time:t ~op:(pick !ops) ~tier:"t" ~phase:"m" "mark"
         | 17 when Random.State.int rnd 10 = 0 -> Trace.clear trace
         | 18 when Random.State.int rnd 10 = 0 ->
           (* span ids restart: a burst may mint past the ids seen before *)
           Trace.reset trace;
           ops :=
             List.init (Random.State.int rnd 200) (fun _ ->
                 Trace.begin_op trace ~time:t ~kind:Trace.Lookup "burst");
           spans := []
         | _ -> ());
        if Random.State.int rnd 8 = 0 then begin
          let kept = Checks.run_all ~state ~checks:[ check ] w in
          let fresh = Checks.run_all ~checks:[ check ] w in
          if kept <> fresh then agree := false
        end
      done;
      !agree)

(* pinned randomness: property runs are reproducible across invocations *)
let suite =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]))
    [
      prop_cache_capacity_bound;
      prop_cache_never_serves_stale;
      prop_trace_retention;
      prop_insert_conserves_items;
      prop_scenario_always_checkable;
      prop_scenario_population_arithmetic;
      prop_scenario_lookups_accounted;
      prop_plot_total_function;
      prop_histogram_total_function;
      prop_latency_sanity_incremental;
    ]
