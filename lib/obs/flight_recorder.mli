(** Always-on flight recorder: a bounded ring of recent operation
    completions and audit findings, dumped when something trips.

    The recorder answers "what led up to the violation" without
    re-running: it is cheap enough to leave enabled at million-peer
    scale (recording is one array store, no allocation beyond the entry
    itself), survives span-ring wraparound (it keeps op {e roots}, not
    span trees), and sees 100% of ops regardless of the trace sample
    rate when fed through {!observe}.  On an [--slo] failure, an audit
    error, or [--dump-on-exit], {!dump} writes the ring as JSONL plus a
    chrome trace of whatever sampled spans the trace still retains. *)

type t

(** One recorded moment: an operation root (kind, completion time, total
    latency, whether its span tree was sampled) or an audit finding. *)
type entry =
  | Op of {
      at : float;
      op : int;
      kind : string;
      total_ms : float;
      op_sampled : bool;
    }
  | Audit of { at : float; check : string; severity : string; detail : string }

(** [create ~capacity ()] — a recorder retaining the last [capacity]
    entries.  @raise Invalid_argument if [capacity <= 0]. *)
val create : capacity:int -> unit -> t

(** Record one completed operation. *)
val record_op :
  t -> at:float -> op:int -> kind:string -> total_ms:float -> sampled:bool -> unit

(** Record one audit finding. *)
val record_audit :
  t -> at:float -> check:string -> severity:string -> detail:string -> unit

(** [observe t] shaped as a {!P2p_sim.Trace.on_op_complete} listener:
    [Trace.on_op_complete trace (Flight_recorder.observe t)] feeds the
    recorder every completion. *)
val observe : t -> P2p_sim.Trace.op_completion -> unit

(** Entries currently retained. *)
val length : t -> int

(** Entries ever recorded (including dropped ones). *)
val total_recorded : t -> int

(** Retained entries, oldest first. *)
val entries : t -> entry list

(** The ring as JSONL: a [{"type":"flight-recorder","reason":...,
    "entries":n,"dropped":n}] header line, then one object per entry
    (oldest first) — [{"t":ms,"type":"op","op":id,"kind":...,
    "total_ms":...,"sampled":bool}] or [{"t":ms,"type":"audit",
    "check":...,"severity":...,"detail":...}]. *)
val to_jsonl : ?reason:string -> t -> string

(** [dump t ~dir ~reason ()] writes [dir/flight-<reason>.jsonl] (the
    ring), plus [flight-<reason>.chrome.json] when [trace] is an enabled
    trace ({!Export.write_trace} of its retained spans) and
    [flight-<reason>.metrics.json] when
    [registry] is given.  Creates [dir] (and parents) as needed; returns
    the paths written, JSONL first. *)
val dump :
  t ->
  ?trace:P2p_sim.Trace.t ->
  ?registry:Registry.t ->
  dir:string ->
  reason:string ->
  unit ->
  string list
