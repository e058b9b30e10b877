(** Live Unix backend of the transport seam.

    Non-blocking TCP with a [Unix.select] event loop.  Peers are node
    indices mapped to socket addresses with {!set_peer_addr}; outbound
    connections are dialled on first {!send} and carry a
    connect/retry/backoff state machine — frames queued while a
    connection is down are preserved and flushed after reconnect.
    Sends past the per-connection byte window still queue but count
    [wire/window_stalls]; past the hard [max_queued] cap the frame is
    dropped and counted in [wire/drops], so an unreachable peer costs
    bounded memory.  Decoding a corrupt stream closes the connection
    and counts [wire/decode_errors]; it never raises.  SIGPIPE is ignored
    at {!create} so peer-closed writes surface as [EPIPE] and go
    through backoff instead of killing the process.

    The loop owner calls {!step} repeatedly; each step selects on every
    live socket (bounded by the earliest timer or redial deadline), runs
    the transport's own {!P2p_sim.Engine} up to the wall clock, then
    services readiness.  Timers are {!P2p_sim.Timer}s armed on that
    engine, with the simulation's semantics: a periodic re-arms from its
    own deadline, so after a stalled loop it fires once per missed
    period.  A connection in backoff redials from a one-shot event on the
    same engine.  Arming a timer or a redial first brings the engine's
    clock up to the wall clock ({!P2p_sim.Engine.advance}), so its delay
    counts from the moment it is armed, in a step or between steps; a
    {!P2p_sim.Timer.reset} between steps counts from the clock's last
    reading.  Time is milliseconds since {!create}.

    Known limit: the loop uses [Unix.select], whose [fd_set] holds
    [FD_SETSIZE] (typically 1024) descriptors — one transport can drive
    a few hundred live connections, not thousands.  Rings beyond that
    need a poll/epoll loop (see SCALING.md, "sim vs live fidelity"). *)

type t

include Transport.S with type t := t and type payload = Wire.msg and type addr = int

(** [set_handler t f] installs the receive dispatch: every delivered
    message is passed to [f].  Replaces — and is replaced by —
    {!set_handler_traced}. *)
val set_handler : t -> (src:int -> dst:int -> Wire.msg -> unit) -> unit

(** [create ~self ()] makes a transport for node [self].  [p_id] is
    advertised in the connection handshake; [window] caps queued bytes
    per connection before sends count as stalled; [max_queued]
    (default [16 * window]) is the hard per-connection cap past which
    sends are dropped and counted.  The reconnect backoff doubles from
    50 ms up to 2 s. *)
val create :
  ?p_id:int ->
  ?window:int ->
  ?max_queued:int ->
  self:int ->
  unit ->
  t

(** The transport's metrics registry.  It holds the [wire/*] counters —
    [msgs_sent], [msgs_received], [bytes_sent], [bytes_received],
    [connects], [retries], [window_stalls], [drops], [decode_errors] and
    [trace_bytes] (one flags byte per sent frame plus 16 per stamped
    trace header) — bumped as the loop runs; they are the only record of
    the transport's traffic.  A {!Live_node} adopts this registry as its
    own. *)
val registry : t -> P2p_obs.Registry.t

(** [send_traced t ?trace ~dst msg] — {!send} with a wire trace context
    stamped on the frame ({!Wire.trace_ctx}: op id, parent span id,
    sampling bit), so the receiver can rebind the message into the
    operation's cross-process span tree. *)
val send_traced : t -> ?trace:Wire.trace_ctx -> dst:int -> Wire.msg -> unit

(** [set_handler_traced t f] installs a handler that also receives each
    frame's trace context ([None] for unstamped frames).  Replaces — and is replaced by — {!set_handler}. *)
val set_handler_traced :
  t ->
  (src:int -> dst:int -> trace:Wire.trace_ctx option -> Wire.msg -> unit) ->
  unit

(** Cancels of this transport's timers that arrived after the timer had
    fired (its engine's {!P2p_sim.Engine.cancel_late}). *)
val cancel_late : t -> int

(** [set_peer_addr t peer sockaddr] registers where [peer] listens. *)
val set_peer_addr : t -> int -> Unix.sockaddr -> unit

(** [listen t sockaddr] binds and listens for inbound connections. *)
val listen : t -> Unix.sockaddr -> unit

(** [self_connected fd] is [true] iff the connected socket [fd]'s local
    address is its peer address: a dial to an unbound port in the
    ephemeral range that TCP's simultaneous open connected to itself.
    The transport treats such a connect as refused — it closes the
    socket and backs off — so the port is free for the peer that will
    listen there.  [false] when [fd] is not connected. *)
val self_connected : Unix.file_descr -> bool

(** [step ?timeout t] runs one event-loop turn: select (at most
    [timeout] seconds, default 0.05, and no later than the engine's next
    event), run every timer and redial due by the wall clock, then
    read/write ready sockets.  Returns [true] iff anything happened. *)
val step : ?timeout:float -> t -> bool

(** [connected t peer] is [true] iff the outbound connection to [peer]
    is established. *)
val connected : t -> int -> bool

(** Bytes queued (and handshake pending) toward [peer]. *)
val pending_bytes : t -> int -> int

(** Flush best-effort, close every socket, stop accepting.  Idempotent;
    later {!step}s are no-ops. *)
val stop : t -> unit

val running : t -> bool
