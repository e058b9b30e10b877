(* Transport seam: wire codec (round-trip, golden bytes, fuzz), timer
   cancel-late semantics (the simulation's engine and the live loop's
   wall-clock engine), and the live TCP loop driven entirely in-process — two [Live_transport]
   endpoints on localhost stepped by hand through connect,
   retry-after-refused, windowed send under a full buffer, and clean
   shutdown. *)

module Wire = P2p_transport.Wire
module Transport = P2p_transport.Transport
module Live = P2p_transport.Live_transport
module Sim_transport = P2p_transport.Sim_transport
module Timer = P2p_sim.Timer
module Engine = P2p_sim.Engine
module Registry = P2p_obs.Registry
module Scrape = P2p_obs.Scrape
module Live_node = P2p_transport.Live_node

let golden_v2_path = "golden/wire_v2.bin"

(* --- codec ----------------------------------------------------------- *)

let roundtrip_every_kind () =
  List.iter
    (fun msg ->
      let frame = Wire.encode msg in
      match Wire.decode frame with
      | Ok (Some (decoded, consumed)) ->
        Alcotest.(check int)
          (Wire.tag_name msg ^ " consumes whole frame")
          (String.length frame) consumed;
        Alcotest.(check bool) (Wire.tag_name msg ^ " round-trips") true
          (decoded = msg)
      | Ok None -> Alcotest.fail (Wire.tag_name msg ^ ": incomplete?")
      | Error e -> Alcotest.fail (Wire.tag_name msg ^ ": " ^ e))
    Wire.golden_exemplars

let all_tags_covered () =
  (* The exemplar list is the codec's coverage contract: one value per
     constructor, distinct tags. *)
  let tags =
    List.sort_uniq compare (List.map Wire.tag_of Wire.golden_exemplars)
  in
  Alcotest.(check int) "one exemplar per message kind" 18 (List.length tags)

let read_golden path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let golden = really_input_string ic len in
  close_in ic;
  golden

let decode_all_traced buf =
  let rec go off acc =
    match Wire.decode_traced ~off buf with
    | Ok (Some (msg, trace, consumed)) -> go (off + consumed) ((msg, trace) :: acc)
    | Ok None ->
      Alcotest.(check int) "no trailing bytes" (String.length buf) off;
      List.rev acc
    | Error e -> Alcotest.fail ("golden stream: " ^ e)
  in
  go 0 []

(* The checked-in v2 golden stream: every exemplar unstamped, then the
   traced exemplars with their headers — all flag combinations pinned. *)
let v2_stream () =
  String.concat ""
    (List.map Wire.encode Wire.golden_exemplars
    @ List.map
        (fun (msg, trace) -> Wire.encode ?trace msg)
        Wire.golden_trace_exemplars)

let golden_bytes () =
  let concatenated = v2_stream () in
  match Sys.getenv_opt "WIRE_GOLDEN_WRITE" with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc concatenated;
    close_out oc
  | None ->
    let golden = read_golden golden_v2_path in
    Alcotest.(check int) "golden length" (String.length golden)
      (String.length concatenated);
    Alcotest.(check bool) "every message kind encodes byte-identically" true
      (golden = concatenated);
    let expected =
      List.map (fun msg -> (msg, None)) Wire.golden_exemplars
      @ Wire.golden_trace_exemplars
    in
    Alcotest.(check bool)
      "golden stream decodes to the exemplars, trace contexts intact" true
      (decode_all_traced golden = expected)

let truncation_never_raises () =
  List.iter
    (fun msg ->
      let frame = Wire.encode msg in
      for cut = 0 to String.length frame - 1 do
        match Wire.decode (String.sub frame 0 cut) with
        | Ok None | Error _ -> ()
        | Ok (Some _) ->
          Alcotest.fail
            (Printf.sprintf "%s truncated to %d bytes decoded"
               (Wire.tag_name msg) cut)
      done)
    Wire.golden_exemplars

(* [body] behind its u32 length word. *)
let frame_of_body body =
  let b = Buffer.create (4 + String.length body) in
  Buffer.add_int32_be b (Int32.of_int (String.length body));
  Buffer.add_string b body;
  Buffer.contents b

let corruption_never_raises () =
  (* Flip every byte of every frame through a few xor patterns: decode
     must return (any result), never raise.  Header corruption (magic,
     version, tag) must be an [Error]. *)
  List.iter
    (fun msg ->
      let frame = Wire.encode msg in
      List.iter
        (fun pattern ->
          for pos = 0 to String.length frame - 1 do
            let corrupted = Bytes.of_string frame in
            Bytes.set corrupted pos
              (Char.chr (Char.code (Bytes.get corrupted pos) lxor pattern));
            ignore (Wire.decode (Bytes.to_string corrupted))
          done)
        [ 0xff; 0x01; 0x80 ])
    Wire.golden_exemplars;
  let frame = Bytes.of_string (Wire.encode Wire.Shutdown) in
  Bytes.set frame 4 'X';
  (match Wire.decode (Bytes.to_string frame) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad magic accepted");
  let frame = Bytes.of_string (Wire.encode Wire.Shutdown) in
  Bytes.set frame 6 '\xee';
  (match Wire.decode (Bytes.to_string frame) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown version accepted");
  (* unknown tags, never assigned or retired with their message kind,
     behind zero payloads as long as the retired kinds' (their strings
     empty) *)
  List.iter
    (fun tag ->
      List.iter
        (fun payload ->
          let body =
            Printf.sprintf "P2\002%c\000%s" (Char.chr tag) (String.make payload '\000')
          in
          match Wire.decode (frame_of_body body) with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "tag %d with a %d-byte payload accepted" tag payload)
        [ 0; 8; 16; 24; 28 ])
    [ 0; 4; 5; 6; 7; 8; 14; 15; 16; 17; 18; 29; 0xee ];
  (* v1 headers (no flags byte) are an unknown version *)
  List.iter
    (fun (what, body) ->
      match Wire.decode (frame_of_body body) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "v1 %s accepted" what)
    [ ("shutdown", "P2\001\026"); ("ping", "P2\001\002" ^ String.make 8 '\007');
      ("ping with a flags byte", "P2\001\002\000" ^ String.make 8 '\007') ]

let oversized_frame_rejected () =
  let b = Buffer.create 8 in
  Buffer.add_int32_be b 0x7fff_ffffl;
  Buffer.add_string b "P2";
  match Wire.decode (Buffer.contents b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame length accepted"

(* --- trace header ----------------------------------------------------- *)

let trace_ctx_roundtrip () =
  List.iter
    (fun trace ->
      List.iter
        (fun msg ->
          let frame = Wire.encode ?trace msg in
          Alcotest.(check int)
            (Wire.tag_name msg ^ " trace overhead matches the accounting")
            (String.length frame)
            (String.length (Wire.encode msg) - 1 + Wire.trace_overhead trace);
          match Wire.decode_traced frame with
          | Ok (Some (decoded, decoded_trace, consumed)) ->
            Alcotest.(check int) "whole frame consumed" (String.length frame)
              consumed;
            Alcotest.(check bool) "message survives" true (decoded = msg);
            Alcotest.(check bool) "trace context survives" true
              (decoded_trace = trace)
          | Ok None -> Alcotest.fail "incomplete?"
          | Error e -> Alcotest.fail e)
        Wire.golden_exemplars)
    [
      None;
      Some Wire.{ tc_op = 0; tc_parent = -1; tc_sampled = true };
      Some Wire.{ tc_op = max_int; tc_parent = max_int; tc_sampled = false };
      Some Wire.{ tc_op = 123_456_789; tc_parent = 1 lsl 42; tc_sampled = true };
    ]

let traced_frames_survive_fuzz () =
  (* Truncation and byte corruption of trace-stamped frames: any result,
     never an exception.  Unknown flag bits must be an [Error]. *)
  let trace = Some Wire.{ tc_op = 9001; tc_parent = 17; tc_sampled = true } in
  List.iter
    (fun msg ->
      let frame = Wire.encode ?trace msg in
      for cut = 0 to String.length frame - 1 do
        match Wire.decode_traced (String.sub frame 0 cut) with
        | Ok None | Error _ -> ()
        | Ok (Some _) ->
          Alcotest.fail
            (Printf.sprintf "%s traced, truncated to %d bytes decoded"
               (Wire.tag_name msg) cut)
      done;
      List.iter
        (fun pattern ->
          for pos = 0 to String.length frame - 1 do
            let corrupted = Bytes.of_string frame in
            Bytes.set corrupted pos
              (Char.chr (Char.code (Bytes.get corrupted pos) lxor pattern));
            ignore (Wire.decode_traced (Bytes.to_string corrupted))
          done)
        [ 0xff; 0x01; 0x80 ])
    Wire.golden_exemplars;
  let frame = Bytes.of_string (Wire.encode Wire.Shutdown) in
  (* flags byte sits right after the tag *)
  Bytes.set frame 8 '\xf0';
  match Wire.decode_traced (Bytes.to_string frame) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown flag bits accepted"

(* --- timer cancel-late semantics ------------------------------------- *)

let sim_cancel_late_counted () =
  let engine = Engine.create ~seed:7 () in
  let fired = ref 0 in
  let t = Timer.one_shot engine ~delay:5.0 (fun () -> incr fired) in
  Engine.run engine;
  Alcotest.(check int) "fired once" 1 !fired;
  Timer.cancel t;
  Alcotest.(check int) "cancel after fire is counted" 1 (Engine.cancel_late engine);
  Timer.cancel t;
  Alcotest.(check int) "second cancel is an uncounted no-op" 1 (Engine.cancel_late engine);
  (* A cancel-late must not leave a ghost entry for the engine to chew. *)
  Alcotest.(check int) "no ghost event scheduled" 1 (Engine.events_executed engine)

let sim_cancel_in_time_not_counted () =
  let engine = Engine.create ~seed:7 () in
  let fired = ref 0 in
  let t = Timer.one_shot engine ~delay:5.0 (fun () -> incr fired) in
  Timer.cancel t;
  Engine.run engine;
  Alcotest.(check int) "never fired" 0 !fired;
  Alcotest.(check int) "timely cancel is not late" 0 (Engine.cancel_late engine)

(* Two worlds in one process: each world's [timer/cancel_late] gauge
   counts only the late cancels of its own engine's timers. *)
let cancel_late_per_world () =
  let module H = Hybrid_p2p.Hybrid in
  let module World = Hybrid_p2p.World in
  let late_cancels h n =
    let w = H.world h in
    for _ = 1 to n do
      let tm = World.one_shot w ~delay:1.0 (fun () -> ()) in
      H.run h;
      Timer.cancel tm
    done;
    let reg = P2p_net.Metrics.registry (H.metrics h) in
    P2p_obs.Engine_stats.record reg (H.engine h);
    Registry.gauge_value (Registry.gauge reg ~subsystem:"timer" ~name:"cancel_late")
  in
  let first = H.create_star ~seed:1 ~peers:4 () and second = H.create_star ~seed:2 ~peers:4 () in
  let a = late_cancels first 2 in
  let b = late_cancels second 1 in
  Alcotest.(check (float 0.0)) "first world: its own two" 2.0 a;
  Alcotest.(check (float 0.0)) "second world: its own one" 1.0 b;
  Alcotest.(check (float 0.0)) "first world unchanged by the second" 2.0
    (late_cancels first 0)

(* Step the transports until [pred ()] or a wall-clock deadline. *)
let pump ?(seconds = 5.0) transports pred =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec loop () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      List.iter (fun tr -> ignore (Live.step ~timeout:0.01 tr)) transports;
      loop ()
    end
  in
  loop ()

let live_fires_and_counts_late_cancel () =
  let a = Live.create ~self:0 () and b = Live.create ~self:1 () in
  let fired = ref 0 in
  (* armed well after the last step: the delay still counts from now *)
  Unix.sleepf 0.15;
  let tm = Live.one_shot a ~delay:100.0 (fun () -> incr fired) in
  Alcotest.(check bool) "nothing due yet" false (Live.step ~timeout:0.0 a);
  Alcotest.(check int) "not fired before its delay" 0 !fired;
  (* the select sleeps no later than the timer's deadline, however long
     the caller lets it block *)
  let started = Unix.gettimeofday () in
  while !fired = 0 && Unix.gettimeofday () -. started < 5.0 do
    ignore (Live.step ~timeout:5.0 a : bool)
  done;
  Alcotest.(check int) "fires once when due" 1 !fired;
  Alcotest.(check bool) "a 5 s select wakes for the timer" true
    (Unix.gettimeofday () -. started < 2.0);
  Alcotest.(check bool) "inactive after firing" false (Timer.active tm);
  Timer.cancel tm;
  Alcotest.(check int) "the transport counts its late cancel" 1 (Live.cancel_late a);
  Timer.cancel tm;
  Alcotest.(check int) "double cancel uncounted" 1 (Live.cancel_late a);
  Alcotest.(check int) "another transport counts none of it" 0 (Live.cancel_late b);
  Live.stop a;
  Live.stop b

let live_periodic_catch_up_reset_cancel () =
  let tr = Live.create ~self:0 () in
  let ticks = ref 0 in
  let tm = Live.periodic tr ~period:50.0 (fun () -> incr ticks) in
  (* A periodic re-arms from its own deadline, as on the simulation
     engine: a loop stalled past five periods fires it once per missed
     period on its next step. *)
  Unix.sleepf 0.27;
  ignore (Live.step ~timeout:0.0 tr : bool);
  Alcotest.(check bool) "stall fires once per missed period" true (!ticks >= 5);
  let caught_up = !ticks in
  Timer.reset tm;
  ignore (Live.step ~timeout:0.0 tr : bool);
  Alcotest.(check int) "reset pushed the next tick out" caught_up !ticks;
  Alcotest.(check bool) "tick after reset" true
    (pump [ tr ] (fun () -> !ticks = caught_up + 1));
  Timer.cancel tm;
  Alcotest.(check bool) "cancelled periodic is inactive" false (Timer.active tm);
  Unix.sleepf 0.12;
  ignore (Live.step ~timeout:0.0 tr : bool);
  Alcotest.(check int) "cancelled periodic stays quiet" (caught_up + 1) !ticks;
  Alcotest.(check int) "a timely cancel is not late" 0 (Live.cancel_late tr);
  Live.stop tr

(* Both backends hand out the same [Timer.t]; through it, the
   late-cancel count, [active] and [reset] behave alike.  [fire ()]
   drives the backend until every due timer has run. *)
let transport_timer_semantics name ~one_shot ~fire ~late =
  let fired = ref 0 in
  let tm : Timer.t = one_shot ~delay:10.0 (fun () -> incr fired) in
  let label what = Printf.sprintf "%s: %s" name what in
  Alcotest.(check bool) (label "armed") true (Timer.active tm);
  let before = late () in
  Timer.cancel tm;
  Alcotest.(check bool) (label "cancelled") false (Timer.active tm);
  fire ();
  Alcotest.(check int) (label "a timely cancel stops the action") 0 !fired;
  Alcotest.(check int) (label "a timely cancel is not late") before (late ());
  Timer.reset tm;
  Alcotest.(check bool) (label "reset re-arms") true (Timer.active tm);
  fire ();
  Alcotest.(check int) (label "fired once") 1 !fired;
  Alcotest.(check bool) (label "inactive after firing") false (Timer.active tm);
  Timer.cancel tm;
  Alcotest.(check int) (label "cancel after fire is counted") (before + 1)
    (late ());
  Timer.cancel tm;
  Alcotest.(check int) (label "second cancel is uncounted") (before + 1)
    (late ());
  fire ();
  Alcotest.(check int) (label "a late cancel leaves nothing to fire") 1 !fired

let timer_block_both_backends () =
  let engine = Engine.create ~seed:7 () in
  let g = P2p_topology.Graph.create 2 in
  P2p_topology.Graph.add_edge g 0 1 ~latency:1.0;
  let underlay =
    P2p_net.Underlay.create ~engine ~routing:(P2p_topology.Routing.create g)
      ~metrics:(P2p_net.Metrics.create ()) ~processing_delay:0.5 ()
  in
  let sim = Sim_transport.create ~underlay in
  transport_timer_semantics "sim"
    ~one_shot:(fun ~delay f -> Transport.one_shot sim ~delay f)
    ~fire:(fun () -> Engine.run engine)
    ~late:(fun () -> Engine.cancel_late engine);
  Alcotest.(check int) "sim: the cancelled arming never ran" 1 (Engine.events_executed engine);
  (* a timer armed before a step is due [delay] after the transport's
     engine clock, which no later wall-clock reading precedes: sleeping
     past the delay and stepping fires whatever is due *)
  let live = Live.create ~self:0 () in
  transport_timer_semantics "live"
    ~one_shot:(fun ~delay f -> Live.one_shot live ~delay f)
    ~fire:(fun () ->
      Unix.sleepf 0.02;
      ignore (Live.step ~timeout:0.0 live : bool))
    ~late:(fun () -> Live.cancel_late live);
  Live.stop live

(* --- live loop ------------------------------------------------------- *)

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* A [wire/*] counter of a transport's registry. *)
let wire tr name =
  Registry.counter_value (Registry.counter (Live.registry tr) ~subsystem:"wire" ~name)

let make_pair ~port_a ~port_b =
  let a = Live.create ~self:0 () in
  let b = Live.create ~self:1 () in
  Live.set_peer_addr a 1 (loopback port_b);
  Live.set_peer_addr b 0 (loopback port_a);
  (a, b)

let live_connect_and_exchange () =
  let port_a = 43210 and port_b = 43211 in
  let a, b = make_pair ~port_a ~port_b in
  Live.listen a (loopback port_a);
  Live.listen b (loopback port_b);
  let got_a = ref [] and got_b = ref [] in
  Live.set_handler a (fun ~src ~dst:_ msg -> got_a := (src, msg) :: !got_a);
  Live.set_handler b (fun ~src ~dst:_ msg -> got_b := (src, msg) :: !got_b);
  Live.send b ~src:1 ~dst:0 (Wire.Ping { nonce = 99 });
  Alcotest.(check bool) "ping arrives" true
    (pump [ a; b ] (fun () -> !got_a <> []));
  (match !got_a with
   | [ (src, Wire.Ping { nonce }) ] ->
     Alcotest.(check int) "handshake identified the sender" 1 src;
     Alcotest.(check int) "payload intact" 99 nonce
   | _ -> Alcotest.fail "unexpected messages at a");
  Live.send a ~src:0 ~dst:1 (Wire.Pong { nonce = 99 });
  Alcotest.(check bool) "pong arrives" true
    (pump [ a; b ] (fun () -> !got_b <> []));
  Live.stop a;
  Live.stop b

let live_trace_ctx_propagates () =
  let port_a = 43270 and port_b = 43271 in
  let a, b = make_pair ~port_a ~port_b in
  Live.listen a (loopback port_a);
  Live.listen b (loopback port_b);
  let got_a = ref [] in
  Live.set_handler_traced a (fun ~src:_ ~dst:_ ~trace msg ->
      got_a := (msg, trace) :: !got_a);
  let ctx = Wire.{ tc_op = 4242; tc_parent = 1 lsl 41; tc_sampled = true } in
  Live.send_traced b ~trace:ctx ~dst:0 (Wire.Ping { nonce = 1 });
  Live.send_traced b ~dst:0 (Wire.Ping { nonce = 2 });
  Alcotest.(check bool) "both frames arrive" true
    (pump [ a; b ] (fun () -> List.length !got_a = 2));
  (match List.rev !got_a with
   | [ (Wire.Ping { nonce = 1 }, Some decoded); (Wire.Ping { nonce = 2 }, None) ]
     ->
     Alcotest.(check bool) "context crossed the socket intact" true
       (decoded = ctx)
   | _ -> Alcotest.fail "unexpected traced delivery");
  (* The overhead accounting the 2%-budget gate reads: one flags byte
     per frame, 16 more for the stamped one. *)
  Alcotest.(check int) "trace_bytes counts flags + stamped header"
    (1 + 16 + 1)
    (wire b "trace_bytes");
  Live.stop a;
  Live.stop b

let live_retry_after_refused () =
  let port_a = 43220 and port_b = 43221 in
  let a, b = make_pair ~port_a ~port_b in
  let got_a = ref [] in
  Live.set_handler a (fun ~src ~dst:_ msg -> got_a := (src, msg) :: !got_a);
  (* Nobody listens on port_a yet: the dial is refused and must back
     off, keeping the queued frame. *)
  Live.send b ~src:1 ~dst:0 (Wire.Ping { nonce = 7 });
  let saw_retry =
    pump ~seconds:3.0 [ b ] (fun () -> wire b "retries" >= 1)
  in
  Alcotest.(check bool) "connect refused triggers backoff retry" true saw_retry;
  Alcotest.(check bool) "message not delivered while down" true (!got_a = []);
  (* Now bring the listener up: a later retry must connect and flush the
     queued frame. *)
  Live.listen a (loopback port_a);
  Alcotest.(check bool) "queued frame delivered after listener appears" true
    (pump ~seconds:10.0 [ a; b ] (fun () -> !got_a <> []));
  (match !got_a with
   | [ (_, Wire.Ping { nonce }) ] -> Alcotest.(check int) "same frame" 7 nonce
   | _ -> Alcotest.fail "unexpected messages at a");
  Live.stop a;
  Live.stop b

(* The guard behind "retry after refused": a socket bound to a loopback
   port and connected to that same address (TCP's simultaneous open with
   itself, what a redial to an unbound ephemeral port can produce) is
   self-connected; an ordinary loopback connection is not, nor is a
   socket that never connected. *)
let live_self_connect_guard () =
  let self = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* its closed port is left in TIME_WAIT: keep it bindable *)
  Unix.setsockopt self Unix.SO_REUSEADDR true;
  Unix.bind self (loopback 0);
  Unix.connect self (Unix.getsockname self);
  Alcotest.(check bool) "connected to its own address" true (Live.self_connected self);
  Unix.close self;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (loopback 0);
  Unix.listen listener 1;
  let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Alcotest.(check bool) "not connected yet" false (Live.self_connected client);
  Unix.connect client (Unix.getsockname listener);
  Alcotest.(check bool) "connected to a listener" false (Live.self_connected client);
  Unix.close client;
  Unix.close listener

let live_windowed_send_under_full_buffer () =
  let port_a = 43230 and port_b = 43231 in
  let a = Live.create ~self:0 () in
  (* A tiny window so a burst outruns it immediately; the hard cap is
     kept wide so backpressure stalls, it does not drop. *)
  let b = Live.create ~self:1 ~window:2048 ~max_queued:(1024 * 1024) () in
  Live.set_peer_addr a 1 (loopback port_b);
  Live.set_peer_addr b 0 (loopback port_a);
  Live.listen a (loopback port_a);
  let received = ref 0 in
  Live.set_handler a (fun ~src:_ ~dst:_ msg ->
      match msg with Wire.Insert _ -> incr received | _ -> ());
  let total = 64 in
  let value = String.make 1024 'x' in
  (* Burst without stepping the receiver: the connection is still in
     flight, so every frame queues and the window fills. *)
  for i = 1 to total do
    Live.send b ~src:1 ~dst:0
      (Wire.Insert
         {
           op = i;
           origin = 1;
           route_id = i;
           key = Printf.sprintf "k%d" i;
           value;
           hops = 0;
         })
  done;
  Alcotest.(check bool) "burst past the window counts stalls" true
    (wire b "window_stalls" > 0);
  Alcotest.(check bool) "backpressure kept bytes queued" true
    (Live.pending_bytes b 0 > 2048);
  (* Draining both loops delivers the entire burst in order. *)
  Alcotest.(check bool) "every frame delivered" true
    (pump ~seconds:10.0 [ a; b ] (fun () -> !received = total));
  Alcotest.(check int) "nothing lost to backpressure" total !received;
  Live.stop a;
  Live.stop b

let live_hard_cap_bounds_dead_peer_queue () =
  (* Nothing ever listens on the destination port: the connection sits
     in backoff forever, and the hard cap must bound what a runaway
     sender can queue against it. *)
  let b = Live.create ~self:1 ~window:1024 ~max_queued:(8 * 1024) () in
  Live.set_peer_addr b 0 (loopback 43250);
  let value = String.make 512 'x' in
  for i = 1 to 200 do
    Live.send b ~src:1 ~dst:0
      (Wire.Insert
         { op = i; origin = 1; route_id = i; key = "k"; value; hops = 0 })
  done;
  Alcotest.(check bool) "past the cap, frames are dropped and counted" true
    (wire b "drops" > 0);
  Alcotest.(check bool) "queued bytes stay under the hard cap" true
    (Live.pending_bytes b 0 <= 8 * 1024 + 1024);
  Alcotest.(check int) "drops account for the whole burst"
    200 (wire b "msgs_sent" + wire b "drops");
  Live.stop b

let live_peer_close_is_backoff_not_sigpipe () =
  (* After the remote stops, continued sends must surface as EPIPE /
     ECONNRESET inside flush_conn and land in backoff — a SIGPIPE with
     default disposition would kill this whole test process. *)
  let port_a = 43260 and port_b = 43261 in
  let a, b = make_pair ~port_a ~port_b in
  Live.listen a (loopback port_a);
  let got_a = ref [] in
  Live.set_handler a (fun ~src ~dst:_ msg -> got_a := (src, msg) :: !got_a);
  Live.send b ~src:1 ~dst:0 (Wire.Ping { nonce = 1 });
  Alcotest.(check bool) "exchange before the remote dies" true
    (pump [ a; b ] (fun () -> !got_a <> []));
  Live.stop a;
  let retries_before = wire b "retries" in
  (* Keep writing into the dead connection until the failure registers.
     The first write after close may be swallowed by the socket buffer;
     the RST turns later ones into EPIPE/ECONNRESET. *)
  let saw_backoff =
    pump ~seconds:5.0 [ b ] (fun () ->
        Live.send b ~src:1 ~dst:0 (Wire.Ping { nonce = 2 });
        wire b "retries" > retries_before)
  in
  Alcotest.(check bool) "peer close became a backoff retry, not a crash"
    true saw_backoff;
  Live.stop b

let live_clean_shutdown () =
  let port_a = 43240 and port_b = 43241 in
  let a, b = make_pair ~port_a ~port_b in
  Live.listen a (loopback port_a);
  let got_a = ref [] in
  Live.set_handler a (fun ~src ~dst:_ msg -> got_a := (src, msg) :: !got_a);
  Live.send b ~src:1 ~dst:0 (Wire.Ping { nonce = 1 });
  Alcotest.(check bool) "exchange before shutdown" true
    (pump [ a; b ] (fun () -> !got_a <> []));
  Live.stop b;
  Live.stop a;
  Alcotest.(check bool) "stopped transports report not running" false
    (Live.running a || Live.running b);
  Alcotest.(check bool) "step after stop is a no-op" false
    (Live.step ~timeout:0.0 a || Live.step ~timeout:0.0 b);
  Live.stop a;
  (* The listening socket really closed: the port can be bound again. *)
  let a2 = Live.create ~self:0 () in
  Live.listen a2 (loopback port_a);
  Live.stop a2

(* --- live node ring ---------------------------------------------------- *)

(* Three [Live_node]s and a client transport (node index 3), all stepped
   in this process: the ring forms and serves inserts and lookups, and
   each node's health dump is a run of scrape snapshots whose last line
   agrees with the node's registry. *)
let live_node_ring () =
  let n = 3 and port_base = 43280 in
  let dir = Filename.temp_file "p2p-live" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let nodes =
    List.init n (fun node -> Live_node.create ~dump_dir:dir ~node ~n ~port_base ())
  in
  let client = Live.create ~self:n () in
  for node = 0 to n - 1 do
    Live.set_peer_addr client node (loopback (port_base + node))
  done;
  Live.listen client (loopback (port_base + n));
  let replies = Hashtbl.create 16 in
  Live.set_handler client (fun ~src:_ ~dst:_ msg ->
      match msg with
      | Wire.Client_reply { req; found; _ } -> Hashtbl.replace replies req found
      | _ -> ());
  let everyone = client :: List.map Live_node.transport nodes in
  Alcotest.(check bool) "ring forms" true
    (pump ~seconds:10.0 everyone (fun () -> List.for_all Live_node.ready nodes));
  let keys = List.init 6 (Printf.sprintf "live-key-%d") in
  List.iteri
    (fun i key ->
      Live.send client ~src:n ~dst:(i mod n)
        (Wire.Client_insert { req = i + 1; key; value = "v-" ^ key }))
    keys;
  Alcotest.(check bool) "inserts acknowledged" true
    (pump ~seconds:10.0 everyone (fun () -> Hashtbl.length replies = 6));
  List.iteri
    (fun i key ->
      Live.send client ~src:n ~dst:((i + 1) mod n)
        (Wire.Client_lookup { req = 100 + i; key }))
    keys;
  Alcotest.(check bool) "lookups answered" true
    (pump ~seconds:10.0 everyone (fun () -> Hashtbl.length replies = 12));
  Alcotest.(check bool) "every operation succeeded" true
    (Hashtbl.fold (fun _ found acc -> acc && found) replies true);
  List.iter Live_node.stop nodes;
  Live.stop client;
  let counter t ~subsystem ~name =
    Registry.counter_value (Registry.counter (Live_node.registry t) ~subsystem ~name)
  in
  let served = ref 0 in
  List.iteri
    (fun node t ->
      let ic = open_in (Filename.concat dir (Printf.sprintf "health-%d.jsonl" node)) in
      let lines = In_channel.input_all ic |> String.split_on_char '\n' in
      close_in ic;
      let snapshots =
        List.filter_map
          (fun line ->
            if line = "" then None
            else
              match Scrape.of_string line with
              | Ok snap -> Some snap
              | Error e -> Alcotest.failf "node %d: health line does not decode: %s" node e)
          lines
      in
      Alcotest.(check bool) "a start and a final line at least" true
        (List.length snapshots >= 2);
      let last = List.nth snapshots (List.length snapshots - 1) in
      Alcotest.(check bool) "final line's wire/msgs_sent is the registry's" true
        (Registry.Doc.find last.Scrape.metrics ~subsystem:"wire"
           ~name:"msgs_sent"
        = Some (Registry.Doc.Counter (counter t ~subsystem:"wire" ~name:"msgs_sent")));
      served := !served + counter t ~subsystem:"ring" ~name:"served")
    nodes;
  Alcotest.(check int) "ring/served counts every operation" 12 !served

(* --- sim transport sanity -------------------------------------------- *)

let sim_transport_timer_is_engine_timer () =
  let engine = Engine.create ~seed:11 () in
  let g = P2p_topology.Graph.create 4 in
  P2p_topology.Graph.add_edge g 0 1 ~latency:1.0;
  P2p_topology.Graph.add_edge g 1 2 ~latency:1.0;
  P2p_topology.Graph.add_edge g 2 3 ~latency:1.0;
  let routing = P2p_topology.Routing.create g in
  let metrics = P2p_net.Metrics.create () in
  let underlay =
    P2p_net.Underlay.create ~engine ~routing ~metrics ~processing_delay:0.5 ()
  in
  let tr = Sim_transport.create ~underlay in
  let fired = ref [] in
  ignore
    (Transport.one_shot tr ~delay:3.0 (fun () -> fired := `T :: !fired)
      : Timer.t);
  Transport.send tr ~src:1 ~dst:2 (fun () -> fired := `M :: !fired);
  Engine.run engine;
  (* message at underlay delay (< 3.0), then the timer *)
  Alcotest.(check bool) "message then timer, on one engine clock" true
    (!fired = [ `T; `M ]);
  Alcotest.(check bool) "transport clock is the engine clock" true
    (Transport.now tr = Engine.now engine)

let suite =
  [
    Alcotest.test_case "codec round-trips every message kind" `Quick
      roundtrip_every_kind;
    Alcotest.test_case "exemplar list covers every tag" `Quick all_tags_covered;
    Alcotest.test_case "golden wire_v2.bin is byte-identical" `Quick
      golden_bytes;
    Alcotest.test_case "decoder survives truncation" `Quick
      truncation_never_raises;
    Alcotest.test_case "decoder survives corruption" `Quick
      corruption_never_raises;
    Alcotest.test_case "oversized frame rejected" `Quick
      oversized_frame_rejected;
    Alcotest.test_case "trace context round-trips on every kind" `Quick
      trace_ctx_roundtrip;
    Alcotest.test_case "traced frames survive truncation and corruption"
      `Quick traced_frames_survive_fuzz;
    Alcotest.test_case "sim timer: cancel after fire is a counted no-op"
      `Quick sim_cancel_late_counted;
    Alcotest.test_case "timer: each world counts its own late cancels" `Quick
      cancel_late_per_world;
    Alcotest.test_case "sim timer: timely cancel is not late" `Quick
      sim_cancel_in_time_not_counted;
    Alcotest.test_case "live timer: due one-shot fires, late cancels per transport" `Quick
      live_fires_and_counts_late_cancel;
    Alcotest.test_case "timer block: same cancel-late semantics on both backends" `Quick
      timer_block_both_backends;
    Alcotest.test_case "live timer: periodic catch-up, reset, cancel" `Quick
      live_periodic_catch_up_reset_cancel;
    Alcotest.test_case "live: connect and exchange" `Quick
      live_connect_and_exchange;
    Alcotest.test_case "live: trace context crosses the socket" `Quick
      live_trace_ctx_propagates;
    Alcotest.test_case "live: retry after refused" `Quick
      live_retry_after_refused;
    Alcotest.test_case "live: a self-connected socket is detected" `Quick
      live_self_connect_guard;
    Alcotest.test_case "live: windowed send under full buffer" `Quick
      live_windowed_send_under_full_buffer;
    Alcotest.test_case "live: hard cap bounds a dead peer's queue" `Quick
      live_hard_cap_bounds_dead_peer_queue;
    Alcotest.test_case "live: peer close is backoff, not SIGPIPE" `Quick
      live_peer_close_is_backoff_not_sigpipe;
    Alcotest.test_case "live: clean shutdown" `Quick live_clean_shutdown;
    Alcotest.test_case "live node: 3-node ring, health lines are snapshots"
      `Quick live_node_ring;
    Alcotest.test_case "sim transport: one clock for messages and timers"
      `Quick sim_transport_timer_is_engine_timer;
  ]
