(** Bounded in-memory span tracing with operation-scoped correlation.

    Every top-level operation (an insert, a lookup, a join, ...) mints an
    {e operation id} with {!begin_op}, which opens the operation's root
    span.  The work the operation causes — a ring hop, a flood branch, a
    replica probe — is recorded as a child span carrying that id, so one
    lookup can be read back afterwards as its causal span tree
    ({!spans_of_op}).  Spans live in a bounded log: keeping it bounded
    makes tracing safe to leave enabled in long experiments — old spans
    fall off the back.

    {b What it costs.}  Memory follows what is recorded, not the
    capacity.  A retained span is one slot in nine flat columns (parent,
    op, source and destination hosts, an interned tier/phase code, start
    and stop floats, label and outcome pointers): 9 words, and recording
    it allocates nothing.  The columns grow by half again when they
    fill, up to [capacity] slots, so the log holds 9 to 13.5 words per
    retained span, plus the label strings callers pass in (usually
    shared literals).  An open op is one slot in four columns (id, kind,
    start, root span) of a power-of-two table of at most
    [max 64 (4 * peak open ops)] slots: 4 to 16 words per op open at the
    peak, nothing per closed one.  An op whose slot a long-open op holds,
    or whose id is negative, waits in a small hash table instead.  A
    {!span} record is a view, built when a reader asks for one.

    Recording through a disabled trace is a no-op costing one branch, so
    library code can trace unconditionally. *)

type t

(** The operation classes the hybrid system distinguishes.  [Custom]
    covers ad-hoc experiment-defined operations. *)
type op_kind =
  | Insert
  | Lookup
  | T_join
  | S_join
  | Leave
  | Repair
  | Keyword
  | Replicate  (** replica fan-out / re-replication heal *)
  | Anti_entropy  (** periodic digest exchange between replica peers *)
  | Custom of string

(** Stable wire name of an operation kind (["insert"], ["t-join"], ...). *)
val op_kind_to_string : op_kind -> string

(** Inverse of {!op_kind_to_string}; unknown names map to [Custom]. *)
val op_kind_of_string : string -> op_kind

(** One node of an operation's causal span tree: a timed unit of work —
    a ring hop, a flood branch, a replica probe — attributed to a tier
    and phase.  A record is a snapshot of the log built on demand by
    {!find}, {!spans}, {!iter_spans} and {!spans_of_op}: it does not
    follow later {!end_span}/{!end_op} calls.  Once [capacity] spans are
    retained, each new span evicts the oldest, so a still-open span can
    be evicted by wraparound (counted by {!span_orphans}). *)
type span = {
  span_id : int;
  parent : int;  (** parent span id; [-1] marks an operation root *)
  span_op : int;  (** operation id the span belongs to *)
  tier : string;  (** e.g. ["t_network"], ["s_network"], ["replication"] *)
  phase : string;  (** e.g. ["ring_hop"], ["flood"], ["replica_probe"] *)
  span_src : int option;  (** sending host, for message-backed spans *)
  span_dst : int option;  (** receiving host, for message-backed spans *)
  span_start : float;  (** simulated ms *)
  span_stop : float option;  (** [None] while still open *)
  span_label : string;
  span_outcome : string;
      (** what {!end_op} reported for a root span (["found at #6, ..."],
          ["timed out"]); [""] for other spans and open roots *)
}

(** [create ~capacity ()] makes a trace keeping the last [capacity]
    spans.

    [sample_rate] (default [1.0], full tracing) enables head-based op
    sampling: each operation minted by {!begin_op} is either {e sampled}
    — its root span and child spans are recorded as usual — or
    {e unsampled} — its root span is never minted and every
    {!begin_span}/{!mark_span} for it returns after a single
    integer compare ({!spans_unsampled} counts the skipped spans).  The
    decision is a pure hash of the op id on stream [sample_seed]
    ({!Rng.hash62}), so two runs with equal seeds sample the identical
    op set and a replay traces exactly the ops the original run traced.
    Exact accounting is unaffected: {!begin_op}/{!end_op} track 100% of
    ops and report each completion to the {!on_op_complete} listener, so
    latency percentiles and SLO gates never depend on the rate.

    [first_span_id] (default [0]) offsets the span-id sequence: a live
    process minting from [node * 2^40] gets span ids disjoint from every
    other process, so a span id carried across the wire as a remote
    parent can never alias a locally minted span.

    @raise Invalid_argument if [capacity <= 0], [sample_rate] is
    outside [\[0, 1\]], or [first_span_id < 0]. *)
val create :
  capacity:int ->
  ?sample_rate:float ->
  ?sample_seed:int ->
  ?first_span_id:int ->
  unit ->
  t

(** A trace that drops everything (the default wiring). *)
val disabled : t

(** [enabled t] — does recording do anything? *)
val enabled : t -> bool

(** [sampled t op] — is operation [op] in the sampled set?  Pure and
    deterministic; always [true] at rate [1.0]. *)
val sampled : t -> int -> bool

(** The configured sampling rate ([1.0] = trace everything). *)
val sample_rate : t -> float

(** What {!end_op} reports for every completed operation, sampled or
    not.  [comp_kind] is the op kind's wire name; the latency is
    [comp_stop -. comp_start] in simulated ms. *)
type op_completion = {
  comp_op : int;
  comp_kind : string;
  comp_start : float;
  comp_stop : float;
  comp_sampled : bool;  (** did the op carry a span tree? *)
}

(** [on_op_complete t f] installs [f] as an op-completion listener;
    subsequent calls chain (all listeners fire, installation order).
    This is the exact-latency path: it sees 100% of completions
    regardless of the sample rate.  No-op on a disabled trace. *)
val on_op_complete : t -> (op_completion -> unit) -> unit

(** [begin_op t ~time ~kind detail] mints a fresh operation id.  Ids are
    consecutive from [0] in minting order, so a fixed seed yields identical
    ids run to run.  The id is minted (and unique) even when the trace is
    disabled.  On an enabled trace it also opens the operation's
    {e root span} (tier ["op"], phase the kind's wire name, label
    [detail]) when the op is sampled (see {!create}); {!end_op} closes
    it.  Exact open-op accounting happens for every op
    regardless of sampling. *)
val begin_op : t -> time:float -> kind:op_kind -> string -> int

(** [begin_extern_op t ~time ~op ~kind detail] — {!begin_op} for an
    operation whose id was minted elsewhere (a client request id carried
    in a wire trace header).  Registers [op] for exact completion
    accounting, mints its root span when sampled (carrying [src]/[dst]
    so exporters can place it on a process track), and bumps the
    internal id counter past [op] so a later {!begin_op} cannot collide.
    Sampling is the same pure hash as {!begin_op}'s: processes sharing
    [sample_seed]/[sample_rate] agree on every op's decision. *)
val begin_extern_op :
  t ->
  time:float ->
  op:int ->
  kind:op_kind ->
  ?src:int ->
  ?dst:int ->
  string ->
  unit

(** [end_op t ~time ~op fmt ...] completes operation [op]: it reports
    the completion to the {!on_op_complete} listeners and closes the
    operation's root span, storing the formatted outcome in its
    [span_outcome].  The outcome is formatted only when [op] has an open
    root span, so unsampled ops and disabled traces pay no formatting.
    Spans begun for [op] afterwards are suppressed (see {!begin_span}). *)
val end_op : t -> time:float -> op:int -> ('a, unit, string, unit) format4 -> 'a

(** [begin_span t ~time ~op ~tier ~phase label] opens a span under
    operation [op] and returns its id.  [parent] defaults to the op's root
    span, so protocol code needs no parent threading.  Containment is kept
    by construction: if the chosen parent has already closed the span is
    {e suppressed} — nothing is recorded, [-1] is returned (safe to pass to
    {!end_span}), and {!spans_suppressed} counts it.  Always [-1] on a
    disabled trace. *)
val begin_span :
  t ->
  time:float ->
  op:int ->
  tier:string ->
  phase:string ->
  ?parent:int ->
  ?src:int ->
  ?dst:int ->
  string ->
  int

(** [end_span t ~time id] closes span [id].  The stop is clamped to the
    parent's stop when the parent closed first ({!spans_clamped}), so a
    child interval always lies inside its parent's.  Ending an id evicted
    by ring wraparound is a counted no-op under {!evicted_ends} (a
    capacity artifact); an id that was never minted counts under
    {!orphan_ends}; a double end, or [time] before the span's start,
    under {!span_mismatches}.  [id = -1] is a no-op. *)
val end_span : t -> time:float -> int -> unit

(** [mark_span t ~time ~op ~tier ~phase label] records a zero-duration
    span (an instant: a cache hit, a heal step). *)
val mark_span :
  t ->
  time:float ->
  op:int ->
  tier:string ->
  phase:string ->
  ?parent:int ->
  ?src:int ->
  ?dst:int ->
  string ->
  unit

(** [op_root_span t op] — the root span id of operation [op] while the
    operation is still open ([None] once {!end_op} ran or after {!clear}). *)
val op_root_span : t -> int -> int option

(** Retained spans, oldest first. *)
val spans : t -> span list

(** [find t id] is the retained span with id [id], if any: [None] for an
    id evicted by wraparound or not minted yet.  O(1). *)
val find : t -> int -> span option

(** [span_window t] is [(lo, next)]: the retained spans are exactly ids
    [lo .. next - 1], and the next span minted gets id [next].  Eviction
    runs oldest id first, so [lo] only grows (until {!reset}). *)
val span_window : t -> int * int

(** [iter_spans t ?from f] applies [f] to every retained span with id
    [>= from] (default: all of them), oldest first — a consumer that
    remembers the last [next] of {!span_window} visits only newer spans. *)
val iter_spans : t -> ?from:int -> (span -> unit) -> unit

(** The [capacity] the trace was created with: at most this many spans
    are retained. *)
val capacity : t -> int

(** [inject_stop t id stop] overwrites retained span [id]'s stop with
    [stop], bypassing the clamping {!end_span} applies: a fault injected
    on purpose, so tests can check that an auditor reports a child span
    escaping its parent.  No-op when [id] is not retained. *)
val inject_stop : t -> int -> float -> unit

(** [spans_of_op t op] — the retained spans of one operation, oldest
    first (the root span included). *)
val spans_of_op : t -> int -> span list

(** Still-open spans evicted by wraparound. *)
val span_orphans : t -> int

(** {!end_span} calls naming an id that was never minted. *)
val orphan_ends : t -> int

(** {!end_span} calls whose span had already been evicted by
    wraparound — distinct from {!orphan_ends} because eviction is a
    capacity artifact, not a protocol bug. *)
val evicted_ends : t -> int

(** Operations that fell in the sampled set (all of them at rate 1). *)
val ops_sampled : t -> int

(** {!begin_span}/{!mark_span} calls skipped because their op was
    unsampled (distinct from {!spans_suppressed}). *)
val spans_unsampled : t -> int

(** Double ends and backwards-time ends. *)
val span_mismatches : t -> int

(** Spans refused because their parent had already closed. *)
val spans_suppressed : t -> int

(** Span stops clamped to a closed parent's stop. *)
val spans_clamped : t -> int

(** Number of operation ids minted so far. *)
val ops_started : t -> int

(** Spans minted so far, evicted ones included.  Survives {!clear};
    {!reset} zeroes it. *)
val total_recorded : t -> int

(** [clear t] empties the span buffer (still-open operations lose their
    root, so their later spans are suppressed).  The lifetime
    accounting survives:
    {!total_recorded} and {!ops_started} keep counting from where they
    were, so a consumer draining the buffer in slices still sees how much
    was ever recorded.  Use {!reset} to also zero the counters. *)
val clear : t -> unit

(** Number of {!reset} calls so far: span ids restart after each, so a
    consumer that remembers span ids compares this to know they are
    stale. *)
val resets : t -> int

(** [reset t] empties the buffer {e and} zeroes the lifetime counters:
    after [reset], {!total_recorded} and {!ops_started} are [0] and the
    next {!begin_op} mints id [0] again — a fresh trace in place.  Only
    safe when no live operation id minted before the reset will be used
    afterwards (ids restart and would collide). *)
val reset : t -> unit
