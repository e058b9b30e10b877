(** Discrete-event simulation engine.

    The engine owns a simulated clock and one {!Event_queue} of thunks.  A
    simulation is driven by scheduling actions at relative delays or
    absolute times and then calling one of the [run] functions.  Actions may
    schedule further actions; time only advances between events.

    This replaces the NS2 substrate the paper evaluated on: every metric the
    paper reports (hop counts, latencies, message counts, failure ratios) is
    produced by event-driven message delivery on top of this engine.  Like
    NS2 it is sequential: events execute strictly in [(time, sequence)]
    order, the sequence number being the scheduling order, so the clock
    never runs backwards and a seed fixes the whole schedule.

    {b Profiling.} The engine always tracks the number of events executed
    and the high-water mark of the queue depth.  When profiling is switched
    on ({!enable_profiling}), events scheduled with a [?label] additionally
    accumulate per-label fire counts and host-CPU handler time, so a run
    report can show where simulation wall-clock goes (message delivery vs
    timers vs experiment glue).  A label applies at schedule time: the
    queue holds bare thunks, and a labelled event scheduled while
    profiling is on is queued wrapped in its timing closure, so only
    events scheduled after {!enable_profiling} are timed.  Profiling is
    off by default and labelled scheduling costs nothing while it stays
    off. *)

type t

type handle = Event_queue.handle

(** [create ~seed ()] makes an engine whose clock starts at [0.] and whose
    root RNG is seeded with [seed]. *)
val create : seed:int -> unit -> t

(** The engine's root RNG.  Subsystems should [Rng.split] it rather than
    share it, so that adding a consumer does not shift other streams. *)
val rng : t -> Rng.t

(** Current simulated time (the timestamp of the executing event). *)
val now : t -> float

(** [schedule ?label t ~delay f] runs [f ()] at [now t +. delay].
    [label] groups the event for {!profile} accounting.
    @raise Invalid_argument if [delay < 0.]. *)
val schedule : ?label:string -> t -> delay:float -> (unit -> unit) -> handle

(** [schedule_at ?label t ~time f] runs [f ()] at absolute [time].
    @raise Invalid_argument if [time] is in the simulated past. *)
val schedule_at : ?label:string -> t -> time:float -> (unit -> unit) -> handle

(** [schedule_detached t ~label ~delay f] is {!schedule} for
    fire-and-forget events: no handle is returned, so nothing cancellable
    is allocated (the queue uses a shared never-dead handle and stores
    the event in a free slot of its arrays).  [label] is a plain
    argument — pass a hoisted value at hot call sites and the call
    allocates nothing: the thunk itself is the queued event.  This is the
    per-message path of the underlay, which never cancels deliveries.
    @raise Invalid_argument if [delay < 0.]. *)
val schedule_detached :
  t -> label:string option -> delay:float -> (unit -> unit) -> unit

(** [cancel h] prevents a scheduled action from running. *)
val cancel : handle -> unit

(** [step t] executes the earliest pending event, advancing the clock.
    Returns [false] if no event was pending. *)
val step : t -> bool

(** [run t] executes events until the queue is empty. *)
val run : t -> unit

(** [run_until t ~time] executes all events with timestamp [<= time], then
    advances the clock to exactly [time]. *)
val run_until : t -> time:float -> unit

(** Timestamp of the earliest pending event, or [infinity] when none:
    how long a driver outside the engine may sleep before it must call
    {!run_until} again. *)
val next_time : t -> float

(** [advance t ~time] moves the clock forward to [time] without running
    anything, but never past the earliest pending event: a driver that
    reads time from outside (the live loop's wall clock) keeps the
    clock fresh between {!run_until} calls, so a delay counts from its
    own reading.  A [time] behind the clock changes nothing. *)
val advance : t -> time:float -> unit

(** {1 Profiling} *)

(** [enable_profiling t] turns on per-label handler timing for events
    scheduled from now on (irreversible for the engine's lifetime; meant
    to be set right after {!create}). *)
val enable_profiling : t -> unit

(** Is per-label profiling on? *)
val profiling : t -> bool

(** [charge t label ~cpu_s] books [cpu_s] seconds of host CPU, spent
    inside the running event, to [label]'s row as one fire, and takes it
    out of the running event's own row: a layer the handlers call into
    (the underlay's route reads) gets a row of its own, and the rows
    still add up to the handlers' CPU.  Charged outside any timed event,
    the time lands in [label]'s row alone.  Meant to be called only
    while {!profiling} is on. *)
val charge : t -> string -> cpu_s:float -> unit

(** Is the handler of a timed event — one scheduled with a label while
    profiling was on — running now?  [false] in code the driver runs
    between events, such as a join's or an issued operation's first
    send. *)
val in_timed_event : t -> bool

(** [stopwatch ()] reads a cheap host clock, in seconds: wall time, one
    vDSO call (~50 ns, against ~0.45 µs for [Sys.time]), so two reads
    can time a span as short as one route read inside an event.  Spans
    timed with it may be {!charge}d: a single-threaded handler's wall
    time is its CPU time. *)
val stopwatch : unit -> float

(** Number of events executed so far. *)
val events_executed : t -> int

(** Number of live events still pending. *)
val pending : t -> int

(** Highest queue depth observed so far (physical heap slots, counting
    not-yet-collected cancelled events). *)
val queue_high_water : t -> int

(** Cancels of this engine's {!Timer}s that arrived after the timer had
    already fired: the [timer/cancel_late] figure of the world that owns
    the engine. *)
val cancel_late : t -> int

(** Count one late cancel ({!Timer.cancel} does). *)
val note_cancel_late : t -> unit

(** [profile t] — per-label [(label, fires, cpu_seconds)] rows, sorted by
    label.  Empty unless {!enable_profiling} was called and labelled events
    fired.  CPU time is host time read with {!stopwatch} (a
    single-threaded handler's wall time is its CPU time), not simulated
    time. *)
val profile : t -> (string * int * float) list
