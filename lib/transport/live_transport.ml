(* Live backend of the transport seam: non-blocking TCP with a
   [Unix.select] event loop.

   Each peer is a node index mapped to a socket address.  Outbound
   connections are dialled on first send and carry a per-connection
   state machine — [Connecting] (non-blocking connect in flight),
   [Connected], [Backoff] (connect refused/reset; retry with exponential
   backoff), [Closed].  Frames queued while a connection is down are
   kept and flushed on reconnect; a fresh [Hello] handshake frame is
   written first on every (re)connect so the remote can attribute the
   connection.  Sends are windowed: once a connection's queued bytes
   exceed the window the send still queues but a [window_stalls]
   counter records the backpressure, and past the hard [max_queued]
   cap the frame is dropped and counted in [drops] — a dead or
   never-listening peer costs bounded memory, not monotonic growth.

   SIGPIPE is ignored at [create] so a write to a peer-closed socket
   surfaces as [Unix_error EPIPE] and goes through the backoff/retry
   machinery instead of killing the process with the signal's default
   disposition.

   Inbound connections are accepted, identified by their first [Hello],
   and read until EOF.  Received frames are decoded incrementally from a
   per-connection buffer — a decode error closes the connection and
   counts [decode_errors], it never raises.

   Timers are the simulation's own [P2p_sim.Timer]s, armed on an engine
   the transport owns; [step] advances that engine to the wall clock
   right after [select] returns, so timer actions run before any socket
   is serviced and socket handlers arm timers from a fresh clock.  A
   connection's reconnect is a one-shot on the same engine.  Times are
   milliseconds since the transport's creation. *)

open P2p_sim
module Registry = P2p_obs.Registry

type payload = Wire.msg
type addr = int

type conn_state = Connecting | Connected | Backoff | Closed

type conn = {
  peer : int;  (* outbound: destination node; inbound: -1 *)
  mutable fd : Unix.file_descr option;
  mutable state : conn_state;
  outq : string Queue.t;
  mutable queued_bytes : int;
  mutable woff : int;  (* bytes of the head frame already written *)
  mutable hello : string;  (* handshake bytes still to write *)
  rbuf : Buffer.t;
  mutable remote : int;  (* peer identified by Hello (inbound) *)
  mutable attempts : int;
}

(* The transport's [wire/*] counters, handles into its registry: the
   only record of its traffic.  [trace_bytes] counts the bytes spent on
   trace plumbing: one flags byte per sent frame plus 16 bytes per
   stamped trace header (see {!Wire.trace_overhead}). *)
type wire = {
  msgs_sent : Registry.counter;
  msgs_received : Registry.counter;
  bytes_sent : Registry.counter;
  bytes_received : Registry.counter;
  connects : Registry.counter;
  retries : Registry.counter;
  window_stalls : Registry.counter;
  drops : Registry.counter;
  decode_errors : Registry.counter;
  trace_bytes : Registry.counter;
}

type t = {
  self : int;
  p_id : int;
  window : int;
  max_queued : int;
  epoch : float;
  addrs : (int, Unix.sockaddr) Hashtbl.t;
  conns : (int, conn) Hashtbl.t;  (* outbound, by destination *)
  mutable inbound : conn list;
  mutable listen_fd : Unix.file_descr option;
  mutable handler :
    src:int -> dst:int -> trace:Wire.trace_ctx option -> Wire.msg -> unit;
  engine : Engine.t;  (* wall-clock timers and reconnect deadlines *)
  reg : Registry.t;
  wire : wire;
  mutable running : bool;
}

(* The reconnect backoff doubles from [backoff_base] up to [backoff_max]
   (ms). *)
let backoff_base = 50.
let backoff_max = 2_000.

let create ?(p_id = 0) ?(window = 256 * 1024) ?max_queued ~self () =
  (* Writes to a peer-closed socket must raise EPIPE, not deliver a
     fatal SIGPIPE before the Unix_error handlers ever run. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let max_queued = Option.value max_queued ~default:(16 * window) in
  let epoch = Unix.gettimeofday () in
  let reg = Registry.create () in
  let c name = Registry.counter reg ~subsystem:"wire" ~name in
  (* bound in turn: a record's fields are evaluated in no fixed order,
     and registration order is export order *)
  let msgs_sent = c "msgs_sent" in
  let msgs_received = c "msgs_received" in
  let bytes_sent = c "bytes_sent" in
  let bytes_received = c "bytes_received" in
  let connects = c "connects" in
  let retries = c "retries" in
  let window_stalls = c "window_stalls" in
  let drops = c "drops" in
  let decode_errors = c "decode_errors" in
  let trace_bytes = c "trace_bytes" in
  {
    self;
    p_id;
    window;
    max_queued;
    epoch;
    addrs = Hashtbl.create 64;
    conns = Hashtbl.create 64;
    inbound = [];
    listen_fd = None;
    handler = (fun ~src:_ ~dst:_ ~trace:_ _ -> ());
    engine = Engine.create ~seed:0 ();
    reg;
    wire =
      {
        msgs_sent;
        msgs_received;
        bytes_sent;
        bytes_received;
        connects;
        retries;
        window_stalls;
        drops;
        decode_errors;
        trace_bytes;
      };
    running = true;
  }

let now t = (Unix.gettimeofday () -. t.epoch) *. 1000.0

let registry t = t.reg

(* The trace-blind handler; context-carrying callers use
   {!set_handler_traced}.  Either setter replaces the other. *)
let set_handler t f = t.handler <- (fun ~src ~dst ~trace:_ msg -> f ~src ~dst msg)

let set_handler_traced t f = t.handler <- f

let set_peer_addr t peer sockaddr = Hashtbl.replace t.addrs peer sockaddr

let listen t sockaddr =
  let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.set_nonblock fd;
  Unix.bind fd sockaddr;
  Unix.listen fd 128;
  t.listen_fd <- Some fd

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let hello_frame t = Wire.encode (Wire.Hello { node = t.self; p_id = t.p_id })

(* Connection established: clear the attempt count so the next drop of
   this (now proven-reachable) peer backs off from [backoff_base], not
   from wherever the dial history left the exponent. *)
let mark_connected c =
  c.state <- Connected;
  c.attempts <- 0

let self_connected fd =
  match (Unix.getsockname fd, Unix.getpeername fd) with
  | local, remote -> local = remote
  | exception Unix.Unix_error _ -> false

(* The engine, its clock brought up to the wall clock as far as no due
   event is passed over: a timer or redial armed between steps counts
   its delay from now, not from the last step. *)
let engine t =
  Engine.advance t.engine ~time:(now t);
  t.engine

(* Connection failed or dropped: park it in backoff, keeping its queued
   frames for the retry, and arm the redial.  The handshake is re-staged
   so the next attempt leads with a fresh [Hello]. *)
let rec conn_failed t c =
  (match c.fd with Some fd -> close_fd fd | None -> ());
  c.fd <- None;
  c.woff <- 0;
  c.attempts <- c.attempts + 1;
  c.state <- Backoff;
  Engine.schedule_detached (engine t) ~label:None
    ~delay:(Float.min backoff_max (backoff_base *. (2. ** float_of_int (c.attempts - 1))))
    (fun () -> if c.state = Backoff then attempt_connect t c);
  Registry.incr t.wire.retries

(* A completed connect counts only when it reached another socket.  A
   dial to an unbound port inside the ephemeral range can be given that
   very port as its own source, and TCP's simultaneous open then
   connects the socket to itself; it is treated as refused. *)
and connect_done t c fd =
  if self_connected fd then conn_failed t c else mark_connected c

(* Start (or restart) a non-blocking connect.  On loopback the kernel
   may refuse synchronously — that is a normal backoff, not an error.
   Outbound sockets set SO_REUSEADDR too: Linux lets a listener bind
   over a TIME_WAIT address only when the closed socket had it, and a
   self-connection closed above leaves its port in TIME_WAIT. *)
and attempt_connect t c =
  match Hashtbl.find_opt t.addrs c.peer with
  | None -> conn_failed t c
  | Some sockaddr -> (
    let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.set_nonblock fd;
    c.fd <- Some fd;
    c.hello <- hello_frame t;
    c.woff <- 0;
    Registry.incr t.wire.connects;
    match Unix.connect fd sockaddr with
    | () -> connect_done t c fd
    | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _) ->
      c.state <- Connecting
    | exception Unix.Unix_error _ -> conn_failed t c)

let ensure_conn t dst =
  match Hashtbl.find_opt t.conns dst with
  | Some c -> c
  | None ->
    let c =
      {
        peer = dst;
        fd = None;
        state = Closed;
        outq = Queue.create ();
        queued_bytes = 0;
        woff = 0;
        hello = "";
        rbuf = Buffer.create 4096;
        remote = dst;
        attempts = 0;
      }
    in
    Hashtbl.replace t.conns dst c;
    attempt_connect t c;
    c

(* Drain as much queued output as the socket accepts: handshake bytes
   first, then whole frames with partial-write bookkeeping. *)
let rec flush_conn t c =
  match c.fd with
  | None -> ()
  | Some fd -> (
    if c.hello <> "" then (
      match Unix.write_substring fd c.hello 0 (String.length c.hello) with
      | n ->
        Registry.incr ~by:n t.wire.bytes_sent;
        c.hello <- String.sub c.hello n (String.length c.hello - n);
        if c.hello = "" then flush_conn t c
      | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> conn_failed t c)
    else
      match Queue.peek_opt c.outq with
      | None -> ()
      | Some frame -> (
        let len = String.length frame in
        match Unix.write_substring fd frame c.woff (len - c.woff) with
        | n ->
          Registry.incr ~by:n t.wire.bytes_sent;
          c.woff <- c.woff + n;
          if c.woff = len then begin
            ignore (Queue.pop c.outq);
            c.queued_bytes <- c.queued_bytes - len;
            c.woff <- 0;
            flush_conn t c
          end
        | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
        | exception Unix.Unix_error _ -> conn_failed t c))

let send_traced t ?trace ~dst msg =
  let c = ensure_conn t dst in
  let frame = Wire.encode ?trace msg in
  if c.queued_bytes + String.length frame > t.max_queued then
    (* Hard cap: a peer that is dead, never listening, or hopelessly
       behind must cost bounded memory.  The newest frame is dropped —
       older queued frames preserve FIFO delivery for whatever does get
       through — and [drops] records the loss for the caller. *)
    Registry.incr t.wire.drops
  else begin
    if c.queued_bytes + String.length frame > t.window then
      Registry.incr t.wire.window_stalls;
    Queue.push frame c.outq;
    c.queued_bytes <- c.queued_bytes + String.length frame;
    Registry.incr t.wire.msgs_sent;
    Registry.incr ~by:(Wire.trace_overhead trace) t.wire.trace_bytes
  end;
  if c.state = Closed then attempt_connect t c;
  if c.state = Connected then flush_conn t c

let send t ~src:_ ~dst msg = send_traced t ~dst msg

(* Decode every complete frame sitting in the connection's read buffer.
   [Hello] identifies the remote end and stays transport-internal; all
   other messages dispatch to the handler.  Returns [false] when the
   stream is corrupt and the connection must die.

   The buffer is materialised once and walked with an offset, then
   compacted once at the end — decoding a backlog of n frames is O(n),
   not the O(n^2) of re-copying the remainder per frame. *)
let drain_frames t c =
  let buf = Buffer.contents c.rbuf in
  let len = String.length buf in
  let rec loop off =
    match Wire.decode_traced ~off buf with
    | Ok None -> Ok off
    | Ok (Some (msg, trace, consumed)) -> (
      Registry.incr t.wire.msgs_received;
      match msg with
      | Wire.Hello { node; _ } ->
        c.remote <- node;
        loop (off + consumed)
      | msg ->
        t.handler ~src:c.remote ~dst:t.self ~trace msg;
        loop (off + consumed))
    | Error _ ->
      Registry.incr t.wire.decode_errors;
      Error ()
  in
  match loop 0 with
  | Error () -> false
  | Ok off ->
    if off > 0 then begin
      Buffer.clear c.rbuf;
      if off < len then Buffer.add_substring c.rbuf buf off (len - off)
    end;
    true

let kill_conn t c =
  (match c.fd with Some fd -> close_fd fd | None -> ());
  c.fd <- None;
  c.state <- Closed;
  if c.peer = -1 then t.inbound <- List.filter (fun x -> x != c) t.inbound

let read_conn t c =
  match c.fd with
  | None -> ()
  | Some fd -> (
    let chunk = Bytes.create 65536 in
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 ->
      (* EOF: inbound conns die; outbound go through backoff so queued
         frames survive the remote's restart. *)
      if c.peer = -1 then kill_conn t c else conn_failed t c
    | n ->
      Registry.incr ~by:n t.wire.bytes_received;
      Buffer.add_subbytes c.rbuf chunk 0 n;
      if not (drain_frames t c) then kill_conn t c
    | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ ->
      if c.peer = -1 then kill_conn t c else conn_failed t c)

let accept_all t =
  match t.listen_fd with
  | None -> ()
  | Some lfd -> (
    let rec loop () =
      match Unix.accept lfd with
      | fd, _ ->
        Unix.set_nonblock fd;
        let c =
          {
            peer = -1;
            fd = Some fd;
            state = Connected;
            outq = Queue.create ();
            queued_bytes = 0;
            woff = 0;
            hello = "";
            rbuf = Buffer.create 4096;
            remote = -1;
            attempts = 0;
          }
        in
        t.inbound <- c :: t.inbound;
        loop ()
      | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> ()
    in
    loop ())

let outbound_conns t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []

(* One event-loop turn: select on every live fd (bounded by [timeout]
   seconds and the engine's earliest timer or redial), run the engine up
   to the wall clock, then service readiness.  Returns true if any
   socket activity or engine event happened — callers poll [step] in a
   loop and may sleep harder when it reports idleness. *)
let step ?(timeout = 0.05) t =
  if not t.running then false
  else begin
    let outbound = outbound_conns t in
    let reads =
      (match t.listen_fd with Some fd -> [ fd ] | None -> [])
      @ List.filter_map
          (fun c -> if c.state = Connected then c.fd else None)
          (outbound @ t.inbound)
    in
    let writes =
      List.filter_map
        (fun c ->
          match (c.state, c.fd) with
          | Connecting, Some fd -> Some fd
          | Connected, Some fd
            when c.hello <> "" || not (Queue.is_empty c.outq) ->
            Some fd
          | _ -> None)
        outbound
    in
    let deadline = Float.min timeout ((Engine.next_time t.engine -. now t) /. 1000.) in
    let rset, wset, _ =
      try Unix.select reads writes [] (Float.max 0. deadline)
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    let executed = Engine.events_executed t.engine in
    Engine.run_until t.engine ~time:(now t);
    let fired = Engine.events_executed t.engine - executed in
    List.iter
      (fun fd ->
        if Some fd = t.listen_fd then accept_all t
        else
          match
            List.find_opt (fun c -> c.fd = Some fd) (outbound @ t.inbound)
          with
          | Some c -> read_conn t c
          | None -> ())
      rset;
    List.iter
      (fun fd ->
        match List.find_opt (fun c -> c.fd = Some fd) outbound with
        | Some c -> (
          match c.state with
          | Connecting -> (
            match Unix.getsockopt_error fd with
            | None ->
              connect_done t c fd;
              if c.state = Connected then flush_conn t c
            | Some _ -> conn_failed t c)
          | Connected -> flush_conn t c
          | _ -> ())
        | None -> ())
      wset;
    rset <> [] || wset <> [] || fired > 0
  end

let one_shot t ?label ~delay f = Timer.one_shot ?label (engine t) ~delay f

let periodic t ?label ~period f = Timer.periodic ?label (engine t) ~period f

let cancel_late t = Engine.cancel_late t.engine

let connected t peer =
  match Hashtbl.find_opt t.conns peer with
  | Some { state = Connected; _ } -> true
  | _ -> false

let pending_bytes t peer =
  match Hashtbl.find_opt t.conns peer with
  | Some c -> c.queued_bytes + String.length c.hello
  | None -> 0

(* Clean shutdown: one best-effort flush per connection, then close
   every socket.  Subsequent [step]s are no-ops. *)
let stop t =
  if t.running then begin
    t.running <- false;
    Hashtbl.iter
      (fun _ c ->
        if c.state = Connected then flush_conn t c;
        (match c.fd with Some fd -> close_fd fd | None -> ());
        c.fd <- None;
        c.state <- Closed)
      t.conns;
    List.iter
      (fun c ->
        (match c.fd with Some fd -> close_fd fd | None -> ());
        c.fd <- None;
        c.state <- Closed)
      t.inbound;
    t.inbound <- [];
    (match t.listen_fd with Some fd -> close_fd fd | None -> ());
    t.listen_fd <- None
  end

let running t = t.running
