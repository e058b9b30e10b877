(* Tests for the discrete-event substrate: Event_queue, Engine, Timer. *)

module Event_queue = P2p_sim.Event_queue
module Engine = P2p_sim.Engine
module Timer = P2p_sim.Timer

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- Event_queue --- *)

let test_queue_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:3.0 'c' : Event_queue.handle);
  ignore (Event_queue.add q ~time:1.0 'a' : Event_queue.handle);
  ignore (Event_queue.add q ~time:2.0 'b' : Event_queue.handle);
  let pop () = Option.get (Event_queue.pop q) in
  Alcotest.check Alcotest.char "first" 'a' (snd (pop ()));
  Alcotest.check Alcotest.char "second" 'b' (snd (pop ()));
  Alcotest.check Alcotest.char "third" 'c' (snd (pop ()));
  checkb "empty" true (Event_queue.pop q = None)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    ignore (Event_queue.add q ~time:5.0 i : Event_queue.handle)
  done;
  for i = 0 to 9 do
    checki "tie broken by insertion order" i (snd (Option.get (Event_queue.pop q)))
  done

let test_queue_cancel () =
  let q = Event_queue.create () in
  let h1 = Event_queue.add q ~time:1.0 "dead" in
  ignore (Event_queue.add q ~time:2.0 "live" : Event_queue.handle);
  Event_queue.cancel h1;
  checkb "cancelled flag" true (Event_queue.cancelled h1);
  Alcotest.check Alcotest.string "cancelled skipped" "live"
    (snd (Option.get (Event_queue.pop q)));
  Event_queue.cancel h1 (* double cancel is harmless *)

let test_queue_cancel_all () =
  let q = Event_queue.create () in
  let handles = List.init 5 (fun i -> Event_queue.add q ~time:(float_of_int i) i) in
  List.iter Event_queue.cancel handles;
  checkb "is_empty" true (Event_queue.is_empty q);
  checkb "pop none" true (Event_queue.pop q = None)

let test_queue_peek () =
  let q = Event_queue.create () in
  checkb "peek empty" true (Event_queue.peek_time q = None);
  let h = Event_queue.add q ~time:4.0 () in
  ignore (Event_queue.add q ~time:7.0 () : Event_queue.handle);
  checkf "peek earliest" 4.0 (Option.get (Event_queue.peek_time q));
  Event_queue.cancel h;
  checkf "peek skips dead" 7.0 (Option.get (Event_queue.peek_time q))

let test_queue_live_length () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1.0 () in
  ignore (Event_queue.add q ~time:2.0 () : Event_queue.handle);
  checki "two live" 2 (Event_queue.live_length q);
  Event_queue.cancel h;
  checki "one live" 1 (Event_queue.live_length q)

let test_queue_compaction_bounded () =
  (* 10k schedule/cancel pairs (the shape of timer churn: resets cancel
     the old entry and schedule a new one) must not accumulate dead heap
     slots — compaction at insertion keeps the physical size within a
     small constant of the live population. *)
  let q = Event_queue.create () in
  let keep = ref [] in
  for i = 1 to 10_000 do
    let h = Event_queue.add q ~time:(float_of_int i) i in
    if i mod 1000 = 0 then keep := (i, h) :: !keep else Event_queue.cancel h
  done;
  checki "live survivors" 10 (Event_queue.live_length q);
  checkb "physical heap bounded" true (Event_queue.length q <= 64);
  (* survivors still pop, in time order *)
  List.iter
    (fun i -> checki "survivor pops in order" (i * 1000) (snd (Option.get (Event_queue.pop q))))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  checkb "then empty" true (Event_queue.pop q = None)

let test_queue_interleaved () =
  (* Random adds/pops stay sorted. *)
  let q = Event_queue.create () in
  let rng = P2p_sim.Rng.create 99 in
  let last = ref neg_infinity in
  let pending = ref 0 in
  for _ = 1 to 2000 do
    if !pending = 0 || P2p_sim.Rng.bool rng then begin
      let time = P2p_sim.Rng.float rng 1000.0 in
      (* never schedule in the past relative to what was already popped *)
      let time = Float.max time !last in
      ignore (Event_queue.add q ~time () : Event_queue.handle);
      incr pending
    end
    else begin
      let time, () = Option.get (Event_queue.pop q) in
      checkb "monotone pops" true (time >= !last);
      last := time;
      decr pending
    end
  done

(* --- handle-free insertion and slot reuse --- *)

let test_queue_add_fast () =
  let q = Event_queue.create () in
  Event_queue.add_fast q ~time:2.0 'b';
  Event_queue.add_fast q ~time:1.0 'a';
  ignore (Event_queue.add q ~time:3.0 'c' : Event_queue.handle);
  Alcotest.check Alcotest.char "first" 'a' (snd (Option.get (Event_queue.pop q)));
  Alcotest.check Alcotest.char "second" 'b' (snd (Option.get (Event_queue.pop q)));
  Alcotest.check Alcotest.char "third" 'c' (snd (Option.get (Event_queue.pop q)))

let test_queue_pop_apply () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:1.0 1 : Event_queue.handle);
  let seen = ref [] in
  let f time v =
    seen := (time, v) :: !seen;
    (* the entry is removed before [f] runs, so re-adding is fine *)
    if v < 3 then ignore (Event_queue.add q ~time:(time +. 1.0) (v + 1) : Event_queue.handle)
  in
  while Event_queue.pop_apply q f do
    ()
  done;
  Alcotest.check
    (Alcotest.list (Alcotest.pair (Alcotest.float 1e-9) Alcotest.int))
    "chain" [ (1.0, 1); (2.0, 2); (3.0, 3) ] (List.rev !seen);
  checkb "empty returns false" false (Event_queue.pop_apply q f)

let test_queue_slot_reuse () =
  (* thousands of add/pop cycles churn through the payload slots; a
     reused slot must never leak a stale value or break ordering *)
  let q = Event_queue.create () in
  for round = 0 to 99 do
    for i = 0 to 49 do
      ignore
        (Event_queue.add q ~time:(float_of_int (i * 13 mod 50)) (round, i)
          : Event_queue.handle)
    done;
    let last = ref neg_infinity in
    for _ = 0 to 49 do
      let time, (r, _) = Option.get (Event_queue.pop q) in
      checkb "time monotone" true (time >= !last);
      last := time;
      checki "value from this round" round r
    done;
    checkb "drained" true (Event_queue.is_empty q)
  done

(* A popped or discarded event's payload is not retained by the queue:
   once the event is gone and a major collection has run, the payload is
   collected, even while other events stay queued. *)
let test_queue_releases_payloads () =
  let q = Event_queue.create () in
  let w = Weak.create 2 in
  let add_tracked i ~time =
    let v = Bytes.make 16 'x' in
    Weak.set w i (Some v);
    Event_queue.add q ~time v
  in
  ignore (add_tracked 0 ~time:1.0 : Event_queue.handle);
  Event_queue.cancel (add_tracked 1 ~time:2.0);
  Event_queue.add_fast q ~time:3.0 (Bytes.make 16 'y');
  checkb "pops the first" true (Event_queue.pop_apply q (fun _ _ -> ()));
  (* the cancelled event is discarded on the way to the third *)
  checkf "third is next" 3.0 (Event_queue.next_time q);
  Gc.full_major ();
  checkb "popped payload collected" true (Weak.get w 0 = None);
  checkb "discarded payload collected" true (Weak.get w 1 = None);
  checki "third still queued" 1 (Event_queue.live_length q)

(* Differential test: random operation sequences against a reference
   model, a list of live events ordered by (time, insertion index). *)
type queue_op =
  | Add of int
  | Add_fast of int
  | Cancel of int  (* the n-th handle issued, modulo the number issued *)
  | Cancel_every of int  (* every k-th handle issued: mass cancellation *)
  | Pop
  | Pop_apply
  | Peek_time
  | Next_time
  | Is_empty

let pp_queue_op = function
  | Add t -> Printf.sprintf "add %d" t
  | Add_fast t -> Printf.sprintf "add_fast %d" t
  | Cancel n -> Printf.sprintf "cancel #%d" n
  | Cancel_every k -> Printf.sprintf "cancel every %d" k
  | Pop -> "pop"
  | Pop_apply -> "pop_apply"
  | Peek_time -> "peek_time"
  | Next_time -> "next_time"
  | Is_empty -> "is_empty"

let queue_op_gen =
  let open QCheck.Gen in
  (* few distinct times, so equal-time ties are common *)
  let time = int_bound 20 in
  frequency
    [
      (6, map (fun t -> Add t) time);
      (3, map (fun t -> Add_fast t) time);
      (2, map (fun n -> Cancel n) nat);
      (1, map (fun k -> Cancel_every k) (int_range 1 3));
      (2, return Pop);
      (2, return Pop_apply);
      (1, return Peek_time);
      (1, return Next_time);
      (1, return Is_empty);
    ]

let queue_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_queue_op ops))
    QCheck.Gen.(list_size (int_range 0 300) queue_op_gen)

let prop_queue_matches_model =
  QCheck.Test.make ~name:"queue: matches a sorted-list model" ~count:300 queue_ops_arb
    (fun ops ->
      let q = Event_queue.create () in
      (* model: live events as (time, index), sorted *)
      let model = ref [] in
      let handles = ref [||] in  (* (index, handle) in issue order *)
      let next_index = ref 0 in
      let insert time =
        let i = !next_index in
        incr next_index;
        model := List.merge compare !model [ (time, i) ];
        i
      in
      let cancel (i, h) =
        Event_queue.cancel h;
        model := List.filter (fun (_, j) -> j <> i) !model
      in
      let front () = match !model with [] -> None | e :: _ -> Some e in
      let model_pop () =
        let e = front () in
        if e <> None then model := List.tl !model;
        e
      in
      let fail op what = QCheck.Test.fail_reportf "after %s: %s" (pp_queue_op op) what in
      List.iter
        (fun op ->
          (match op with
           | Add t ->
             let time = float_of_int t in
             let i = insert time in
             handles := Array.append !handles [| (i, Event_queue.add q ~time i) |]
           | Add_fast t ->
             let time = float_of_int t in
             Event_queue.add_fast q ~time (insert time)
           | Cancel n ->
             let hs = !handles in
             if Array.length hs > 0 then cancel hs.(n mod Array.length hs)
           | Cancel_every k -> Array.iteri (fun j e -> if j mod k = 0 then cancel e) !handles
           | Pop ->
             let expected = model_pop () in
             if Event_queue.pop q <> expected then fail op "pop disagrees"
           | Pop_apply ->
             let expected = model_pop () in
             let got = ref None in
             let popped = Event_queue.pop_apply q (fun time i -> got := Some (time, i)) in
             if popped <> Option.is_some expected || !got <> expected then
               fail op "pop_apply disagrees"
           | Peek_time ->
             if Event_queue.peek_time q <> Option.map fst (front ()) then
               fail op "peek_time disagrees"
           | Next_time ->
             let expected = Option.fold ~none:infinity ~some:fst (front ()) in
             if Event_queue.next_time q <> expected then fail op "next_time disagrees"
           | Is_empty -> if Event_queue.is_empty q <> (!model = []) then fail op "is_empty disagrees");
          let live = Event_queue.live_length q in
          if live <> List.length !model then
            fail op (Printf.sprintf "live_length %d, model %d" live (List.length !model));
          if Event_queue.length q < live then fail op "length < live_length")
        ops;
      (* drain: the rest pops in model order *)
      List.iter
        (fun expected ->
          if Event_queue.pop q <> Some expected then QCheck.Test.fail_reportf "drain disagrees")
        !model;
      Event_queue.pop q = None)

(* --- Engine --- *)

let test_engine_clock () =
  let e = Engine.create ~seed:1 () in
  checkf "starts at 0" 0.0 (Engine.now e);
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> fired := 5 :: !fired) : Engine.handle);
  ignore (Engine.schedule e ~delay:2.0 (fun () -> fired := 2 :: !fired) : Engine.handle);
  Engine.run e;
  checkf "clock advanced" 5.0 (Engine.now e);
  Alcotest.check (Alcotest.list Alcotest.int) "order" [ 5; 2 ] !fired

let test_engine_negative_delay () =
  let e = Engine.create ~seed:1 () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule e ~delay:(-1.0) (fun () -> ()) : Engine.handle))

let test_engine_schedule_at_past () =
  let e = Engine.create ~seed:1 () in
  ignore (Engine.schedule e ~delay:10.0 (fun () -> ()) : Engine.handle);
  Engine.run e;
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at e ~time:5.0 (fun () -> ()) : Engine.handle))

let test_engine_cascading () =
  let e = Engine.create ~seed:1 () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      ignore
        (Engine.schedule e ~delay:1.0 (fun () ->
             incr count;
             chain (n - 1))
          : Engine.handle)
  in
  chain 10;
  Engine.run e;
  checki "all fired" 10 !count;
  checkf "clock = 10" 10.0 (Engine.now e);
  checki "events_executed" 10 (Engine.events_executed e)

let test_engine_run_until () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired) : Engine.handle)
  done;
  Engine.run_until e ~time:5.5;
  checki "five fired" 5 !fired;
  checkf "clock at 5.5" 5.5 (Engine.now e);
  checki "pending" 5 (Engine.pending e);
  Engine.run e;
  checki "rest fired" 10 !fired

let test_engine_cancel () =
  let e = Engine.create ~seed:1 () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  checkb "cancelled never fires" false !fired

let test_engine_same_time_order () =
  let e = Engine.create ~seed:1 () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:3.0 (fun () -> order := i :: !order) : Engine.handle)
  done;
  Engine.run e;
  Alcotest.check (Alcotest.list Alcotest.int) "scheduling order preserved" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

(* --- schedule_detached --- *)

let test_engine_schedule_detached () =
  let e = Engine.create ~seed:1 () in
  let log = ref [] in
  Engine.schedule_detached e ~label:None ~delay:2.0 (fun () ->
      log := "detached" :: !log);
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := "first" :: !log) : Engine.handle);
  ignore
    (Engine.schedule e ~delay:2.0 (fun () -> log := "tie-second" :: !log)
      : Engine.handle);
  Engine.run e;
  (* the detached event was scheduled first, so it wins the time-2 tie *)
  Alcotest.check (Alcotest.list Alcotest.string) "ordering with normal schedules"
    [ "first"; "detached"; "tie-second" ] (List.rev !log);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_detached: negative delay") (fun () ->
      Engine.schedule_detached e ~label:None ~delay:(-1.0) (fun () -> ()))

(* --- Timer --- *)

let test_timer_one_shot () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  let t = Timer.one_shot e ~delay:10.0 (fun () -> incr fired) in
  checkb "active" true (Timer.active t);
  Engine.run e;
  checki "fired once" 1 !fired;
  checkb "inactive after fire" false (Timer.active t)

let test_timer_cancel () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  let t = Timer.one_shot e ~delay:10.0 (fun () -> incr fired) in
  Timer.cancel t;
  Engine.run e;
  checki "never fired" 0 !fired

let test_timer_reset_postpones () =
  let e = Engine.create ~seed:1 () in
  let fire_time = ref 0.0 in
  let t = Timer.one_shot e ~delay:10.0 (fun () -> fire_time := Engine.now e) in
  Engine.run_until e ~time:6.0;
  Timer.reset t;
  Engine.run e;
  checkf "postponed to 16" 16.0 !fire_time

let test_timer_reset_rearms () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  let t = Timer.one_shot e ~delay:5.0 (fun () -> incr fired) in
  Engine.run e;
  checki "first" 1 !fired;
  Timer.reset t;
  Engine.run e;
  checki "rearmed fires again" 2 !fired

let test_timer_periodic () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  let t = Timer.periodic e ~period:2.0 (fun () -> incr fired) in
  Engine.run_until e ~time:9.0;
  checki "four ticks in 9ms at period 2" 4 !fired;
  Timer.cancel t;
  Engine.run_until e ~time:20.0;
  checki "no ticks after cancel" 4 !fired

let test_timer_periodic_cancel_in_action () =
  let e = Engine.create ~seed:1 () in
  let fired = ref 0 in
  let cell = ref None in
  let t =
    Timer.periodic e ~period:1.0 (fun () ->
        incr fired;
        if !fired = 3 then Timer.cancel (Option.get !cell))
  in
  cell := Some t;
  Engine.run_until e ~time:10.0;
  checki "self-cancel stops at 3" 3 !fired

let suite =
  [
    Alcotest.test_case "queue: pops in time order" `Quick test_queue_order;
    Alcotest.test_case "queue: FIFO on equal times" `Quick test_queue_fifo_ties;
    Alcotest.test_case "queue: cancellation" `Quick test_queue_cancel;
    Alcotest.test_case "queue: cancel all" `Quick test_queue_cancel_all;
    Alcotest.test_case "queue: peek_time" `Quick test_queue_peek;
    Alcotest.test_case "queue: live_length" `Quick test_queue_live_length;
    Alcotest.test_case "queue: 10k cancels stay compact" `Quick test_queue_compaction_bounded;
    Alcotest.test_case "queue: interleaved ops stay sorted" `Quick test_queue_interleaved;
    Alcotest.test_case "queue: add_fast ordering" `Quick test_queue_add_fast;
    Alcotest.test_case "queue: pop_apply" `Quick test_queue_pop_apply;
    Alcotest.test_case "queue: slot reuse" `Quick test_queue_slot_reuse;
    Alcotest.test_case "queue: releases popped payloads" `Quick test_queue_releases_payloads;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261017 |])
      prop_queue_matches_model;
    Alcotest.test_case "engine: clock and ordering" `Quick test_engine_clock;
    Alcotest.test_case "engine: negative delay rejected" `Quick test_engine_negative_delay;
    Alcotest.test_case "engine: schedule_at past rejected" `Quick test_engine_schedule_at_past;
    Alcotest.test_case "engine: cascading events" `Quick test_engine_cascading;
    Alcotest.test_case "engine: run_until" `Quick test_engine_run_until;
    Alcotest.test_case "engine: cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine: same-time scheduling order" `Quick test_engine_same_time_order;
    Alcotest.test_case "engine: schedule_detached ordering" `Quick
      test_engine_schedule_detached;
    Alcotest.test_case "timer: one-shot" `Quick test_timer_one_shot;
    Alcotest.test_case "timer: cancel" `Quick test_timer_cancel;
    Alcotest.test_case "timer: reset postpones" `Quick test_timer_reset_postpones;
    Alcotest.test_case "timer: reset rearms" `Quick test_timer_reset_rearms;
    Alcotest.test_case "timer: periodic" `Quick test_timer_periodic;
    Alcotest.test_case "timer: periodic self-cancel" `Quick test_timer_periodic_cancel_in_action;
  ]
