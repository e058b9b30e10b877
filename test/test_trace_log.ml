(* The flat span log and op table behind [P2p_sim.Trace]: what a retained
   span and an open op cost, and a property holding the log to the plain
   ring of span records ([Trace_reference]) call for call. *)

module Trace = P2p_sim.Trace
module Ref = Trace_reference

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* [n] closed spans under one op, labelled with shared literals as the
   protocol layers label theirs. *)
let fill t n =
  let op = Trace.begin_op t ~time:0.0 ~kind:Trace.Lookup "k" in
  for i = 1 to n - 1 do
    let s = Trace.begin_span t ~time:(float_of_int i) ~op ~tier:"t_network" ~phase:"ring_hop"
        ~src:i ~dst:(i + 1) "ring_hop"
    in
    Trace.end_span t ~time:(float_of_int i +. 0.5) s
  done;
  Trace.end_op t ~time:(float_of_int n) ~op "done"

let words t = Obj.reachable_words (Obj.repr t)

let test_words_per_span () =
  List.iter
    (fun n ->
      let t = Trace.create ~capacity:200_000 () in
      fill t n;
      checki "all retained" n (List.length (Trace.spans t));
      let per_span = float_of_int (words t) /. float_of_int n in
      if per_span > 16.0 then
        Alcotest.failf "%d spans hold %.1f words each (> 16)" n per_span)
    [ 1_000; 1_640; 3_000; 10_000 ]

(* Memory follows the spans minted, not the capacity: at the default
   capacity, 3,000 spans cost what they cost in a log sized for them. *)
let test_words_follow_retained () =
  let big = Trace.create ~capacity:200_000 () and snug = Trace.create ~capacity:3_000 () in
  fill big 3_000;
  fill snug 3_000;
  checkb "capacity 200,000 holds O(retained) words" true (words big <= 16 * 3_000);
  checkb "no more than a log sized for the spans, give or take a growth step" true
    (words big <= 2 * words snug);
  (* clear gives the columns back *)
  Trace.clear big;
  checkb "cleared log is small" true (words big < 1_000)

(* A sampling decision is asked per message of a traced run, and ops
   interleave, so the one-entry memo misses often: the hash behind it
   must not allocate (it boxed 6 words per decision). *)
let test_sampling_allocates_nothing () =
  let t = Trace.create ~capacity:16 ~sample_rate:0.01 ~sample_seed:42 () in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for op = 0 to 9_999 do
    if Trace.sampled t (op * 7) then incr hits
  done;
  let per_call = (Gc.minor_words () -. before) /. 10_000.0 in
  checkb "sampled allocates nothing" true (per_call < 0.001);
  checkb "about 1% sampled" true (!hits > 50 && !hits < 200)

(* --- the property --- *)

let of_ref (r : Ref.span) =
  {
    Trace.span_id = r.Ref.span_id;
    parent = r.Ref.parent;
    span_op = r.Ref.span_op;
    tier = r.Ref.tier;
    phase = r.Ref.phase;
    span_src = r.Ref.span_src;
    span_dst = r.Ref.span_dst;
    span_start = r.Ref.span_start;
    span_stop = r.Ref.span_stop;
    span_label = r.Ref.span_label;
    span_outcome = r.Ref.span_outcome;
  }

let counters t =
  [
    Trace.span_orphans t; Trace.orphan_ends t; Trace.evicted_ends t; Trace.ops_sampled t;
    Trace.spans_unsampled t; Trace.span_mismatches t; Trace.spans_suppressed t;
    Trace.spans_clamped t; Trace.ops_started t; Trace.total_recorded t; Trace.resets t;
    fst (Trace.span_window t); snd (Trace.span_window t);
  ]

let ref_counters r =
  [
    Ref.span_orphans r; Ref.orphan_ends r; Ref.evicted_ends r; Ref.ops_sampled r;
    Ref.spans_unsampled r; Ref.span_mismatches r; Ref.spans_suppressed r; Ref.spans_clamped r;
    Ref.ops_started r; Ref.total_recorded r; Ref.resets r; fst (Ref.span_window r);
    snd (Ref.span_window r);
  ]

let kinds =
  [| Trace.Lookup; Trace.Insert; Trace.Repair; Trace.Custom "audit"; Trace.Anti_entropy |]

let stride = 1 lsl 40

(* One random program run on both; [None] when they agree throughout,
   else what differed first. *)
let run_program ~capacity ~sample_rate ~first_span_id ~steps seed =
  let rnd = Random.State.make [| seed |] in
  let t = Trace.create ~capacity ~sample_rate ~sample_seed:seed ~first_span_id () in
  let r = Ref.create ~capacity ~sample_rate ~sample_seed:seed ~first_span_id () in
  let done_t = ref [] and done_r = ref [] in
  Trace.on_op_complete t (fun c ->
      done_t := (c.Trace.comp_op, c.Trace.comp_kind, c.Trace.comp_start, c.Trace.comp_stop,
                 c.Trace.comp_sampled) :: !done_t);
  Ref.on_op_complete r (fun c ->
      done_r := (c.Ref.comp_op, c.Ref.comp_kind, c.Ref.comp_start, c.Ref.comp_stop,
                 c.Ref.comp_sampled) :: !done_r);
  let ops = ref [] and spans = ref [] and time = ref 0.0 in
  let failure = ref None in
  let fail step what = if !failure = None then failure := Some (Printf.sprintf "step %d: %s" step what) in
  let pick l = List.nth l (Random.State.int rnd (List.length l)) in
  let int n = Random.State.int rnd n in
  let host () = match int 4 with 0 -> None | 1 -> Some (-1) | _ -> Some (int 50) in
  let any_op () =
    match int 6 with
    | 0 -> int 5 (* maybe never begun *)
    | 1 -> ((1 + int 3) lsl 32) + int 2 (* a client-chosen id far from the others *)
    | 2 -> -1 - int 3
    | _ -> if !ops = [] then 0 else pick !ops
  in
  let any_span () =
    let lo, next = Trace.span_window t in
    match int 8 with
    | 0 -> -1
    | 1 -> next + int 3 (* not minted yet *)
    | 2 -> lo - 1 - int 3 (* evicted, or below the first id *)
    | 3 -> (3 * stride) + int 4 (* another process's range *)
    | _ -> if !spans = [] then next else pick !spans
  in
  for step = 1 to steps do
    if !failure = None then begin
      (* half-unit steps, so stops often equal their parent's *)
      time := !time +. (0.5 *. float_of_int (int 3));
      let now = !time in
      (match int 24 with
       | 0 | 1 | 2 ->
         let kind = kinds.(int (Array.length kinds)) in
         let a = Trace.begin_op t ~time:now ~kind "detail" in
         let b = Ref.begin_op r ~time:now ~kind "detail" in
         if a <> b then fail step "begin_op ids";
         ops := a :: !ops
       | 3 ->
         let op = any_op () and kind = kinds.(int (Array.length kinds)) in
         let src = host () and dst = host () in
         Trace.begin_extern_op t ~time:now ~op ~kind ?src ?dst "req";
         Ref.begin_extern_op r ~time:now ~op ~kind ?src ?dst "req";
         ops := op :: !ops
       | 4 | 5 ->
         let op = any_op () and n = int 100 in
         Trace.end_op t ~time:now ~op "done %d" n;
         Ref.end_op r ~time:now ~op "done %d" n
       | 6 | 7 | 8 | 9 | 10 | 11 ->
         let op = any_op () in
         let parent = if int 3 = 0 then Some (any_span ()) else None in
         let src = host () and dst = host () in
         let start = now -. (0.5 *. float_of_int (int 4)) in
         let phase = if int 2 = 0 then "hop" else "flood" in
         let a = Trace.begin_span t ~time:start ~op ~tier:"t" ~phase ?parent ?src ?dst phase in
         let b = Ref.begin_span r ~time:start ~op ~tier:"t" ~phase ?parent ?src ?dst phase in
         if a <> b then fail step "begin_span ids";
         if a >= 0 then spans := a :: !spans
       | 12 | 13 | 14 | 15 | 16 ->
         let id = any_span () and stop = now +. (0.5 *. float_of_int (int 6)) -. 1.0 in
         Trace.end_span t ~time:stop id;
         Ref.end_span r ~time:stop id
       | 17 ->
         let op = any_op () and parent = if int 4 = 0 then Some (any_span ()) else None in
         Trace.mark_span t ~time:now ~op ~tier:"cache" ~phase:"hit" ?parent "mark";
         Ref.mark_span r ~time:now ~op ~tier:"cache" ~phase:"hit" ?parent "mark"
       | 18 when int 12 = 0 ->
         Trace.clear t;
         Ref.clear r
       | 19 when int 12 = 0 ->
         Trace.reset t;
         Ref.reset r;
         ops := [];
         spans := []
       | _ -> ());
      if counters t <> ref_counters r then fail step "counters";
      let op = any_op () in
      if Trace.op_root_span t op <> Ref.op_root_span r op then fail step "op_root_span";
      let id = any_span () in
      if Trace.find t id <> Option.map of_ref (Ref.find r id) then fail step "find";
      if Trace.sampled t op <> Ref.sampled r op then fail step "sampled";
      if int 10 = 0 && Trace.spans_of_op t op <> List.map of_ref (Ref.spans_of_op r op) then
        fail step "spans_of_op"
    end
  done;
  if Trace.spans t <> List.map of_ref (Ref.spans r) then fail steps "spans";
  if !done_t <> !done_r then fail steps "op completions";
  !failure

let prop_matches_reference =
  QCheck.Test.make ~name:"trace log matches the reference ring" ~count:300
    (QCheck.triple (QCheck.make (QCheck.Gen.int_range 1 70)) (QCheck.make (QCheck.Gen.int_range 0 3))
       QCheck.small_nat)
    (fun (capacity, variant, seed) ->
      let sample_rate = if variant land 1 = 0 then 1.0 else 0.5 in
      let first_span_id = if variant land 2 = 0 then 0 else 3 * stride in
      match run_program ~capacity ~sample_rate ~first_span_id ~steps:400 seed with
      | None -> true
      | Some what ->
        QCheck.Test.fail_reportf "capacity %d, rate %g, first id %d: %s" capacity sample_rate
          first_span_id what)

(* A live node's trace: span ids from 3 * 2^40, op ids chosen by clients
   far apart, a log small enough to wrap many times over.  It records,
   evicts and exports what the reference ring does. *)
let test_live_style () =
  let capacity = 16 and first_span_id = 3 * stride in
  let t = Trace.create ~capacity ~first_span_id () in
  let r = Ref.create ~capacity ~first_span_id () in
  for client = 0 to 4 do
    for j = 0 to 19 do
      let req = (client * (1 lsl 32)) + j and time = float_of_int ((client * 100) + j) in
      Trace.begin_extern_op t ~time ~op:req ~kind:Trace.Lookup ~src:(50 + client) ~dst:3 "key";
      Ref.begin_extern_op r ~time ~op:req ~kind:Trace.Lookup ~src:(50 + client) ~dst:3 "key";
      let root = Option.get (Trace.op_root_span t req) in
      checkb "root from the live range" true (root >= first_span_id);
      let a =
        Trace.begin_span t ~time:(time +. 0.1) ~op:req ~tier:"t_network" ~phase:"ring_hop"
          ~parent:root ~src:3 ~dst:4 "key"
      and b =
        Ref.begin_span r ~time:(time +. 0.1) ~op:req ~tier:"t_network" ~phase:"ring_hop"
          ~parent:root ~src:3 ~dst:4 "key"
      in
      checki "same hop id" b a;
      (* every third request is answered late, after its hop was evicted *)
      if j mod 3 <> 0 then begin
        Trace.end_span t ~time:(time +. 0.4) a;
        Ref.end_span r ~time:(time +. 0.4) b;
        Trace.end_op t ~time:(time +. 0.5) ~op:req "%s" "found";
        Ref.end_op r ~time:(time +. 0.5) ~op:req "%s" "found"
      end
    done
  done;
  for client = 0 to 4 do
    for j = 0 to 19 do
      if j mod 3 = 0 then begin
        let req = (client * (1 lsl 32)) + j in
        Trace.end_op t ~time:1_000.0 ~op:req "%s" "not-found";
        Ref.end_op r ~time:1_000.0 ~op:req "%s" "not-found"
      end
    done
  done;
  Alcotest.(check (list int)) "counters" (ref_counters r) (counters t);
  checkb "wrapped many times" true (Trace.evicted_ends t > 0 && Trace.span_orphans t > 0);
  checkb "same retained spans" true (Trace.spans t = List.map of_ref (Ref.spans r));
  checki "one export event per closed span"
    (List.length (List.filter (fun (s : Ref.span) -> s.Ref.span_stop <> None) (Ref.spans r)))
    (List.length
       (List.filter
          (fun e -> P2p_obs.Json.member "ph" e = Some (P2p_obs.Json.String "X"))
          (P2p_obs.Export.chrome_events t)))

(* A traced message's span closes when its handler returns, and also
   when the handler raises. *)
let test_send_span_closes () =
  let module H = Hybrid_p2p.Hybrid in
  let module World = Hybrid_p2p.World in
  let trace = Trace.create ~capacity:64 () in
  let h = H.create_star ~seed:5 ~peers:8 ~trace () in
  let a = H.join h ~host:0 ~role:Hybrid_p2p.Peer.T_peer ~p_id:100 () in
  H.run h;
  let b = H.join h ~host:1 ~role:Hybrid_p2p.Peer.T_peer ~p_id:200 () in
  H.run h;
  let w = H.world h in
  let op = Trace.begin_op trace ~time:(World.now w) ~kind:Trace.Lookup "k" in
  World.send_span w ~op ~tier:"t_network" ~phase:"ok_hop" ~src:a ~dst:b ignore;
  World.send_span w ~op ~tier:"t_network" ~phase:"raising_hop" ~src:a ~dst:b (fun () ->
      failwith "handler");
  (match H.run h with () -> Alcotest.fail "the handler's exception was lost" | exception Failure _ -> ());
  H.run h;
  List.iter
    (fun phase ->
      match List.filter (fun (s : Trace.span) -> s.Trace.phase = phase) (Trace.spans_of_op trace op) with
      | [ s ] -> checkb (phase ^ " closed") true (s.Trace.span_stop <> None)
      | _ -> Alcotest.failf "no single %s span" phase)
    [ "ok_hop"; "raising_hop" ]

(* What a traced op's close costs on top of an untraced one: the
   op-completion listener [Spans.record_totals] installs (every run with
   a trace has it) looks up the op kind's histogram and files the
   duration in a bucket.  It cost 20–22 words more per op while the
   lookup and the bucket probe each built an option and the bucket
   edges were boxed, and 12 while the histogram boxed its running sum;
   10 remain (the completion record with its two boxed floats). *)
let test_op_close_words () =
  let pairs = 10_000 in
  let per_pair ~listener =
    let t = Trace.create ~capacity:16 () in
    if listener then P2p_obs.Spans.record_totals (P2p_obs.Registry.create ()) t;
    let cycle i =
      let time = float_of_int i in
      let op = Trace.begin_op t ~time ~kind:Trace.Lookup "" in
      Trace.end_op t ~time:(time +. 1.5) ~op "done"
    in
    (* the first close of a kind registers its histogram and bucket *)
    for i = 1 to 100 do cycle i done;
    let before = Gc.minor_words () in
    for i = 1 to pairs do cycle i done;
    (Gc.minor_words () -. before) /. float_of_int pairs
  in
  let traced = per_pair ~listener:true and untraced = per_pair ~listener:false in
  checkb
    (Printf.sprintf "%.1f words per traced op close, %.1f untraced (<= 10 more)" traced
       untraced)
    true
    (traced -. untraced <= 10.0)

let suite =
  [
    Alcotest.test_case "at most 16 words per retained span" `Quick test_words_per_span;
    Alcotest.test_case "words follow retained spans, not capacity" `Quick
      test_words_follow_retained;
    Alcotest.test_case "sampling decisions allocate nothing" `Quick
      test_sampling_allocates_nothing;
    Alcotest.test_case "live-style trace matches the reference" `Quick test_live_style;
    Alcotest.test_case "send_span closes on return and on raise" `Quick test_send_span_closes;
    Alcotest.test_case "a traced op close: <= 10 words more" `Quick test_op_close_words;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261019 |]) prop_matches_reference;
  ]
