(* Reference model of [P2p_sim.Trace]'s recording semantics: a ring of
   [capacity] boxed span records, a span at slot [id mod capacity], and
   hash tables for open ops and op roots — the plainest storage that
   has the contract's behaviour.  Slow and large, and written for
   plainness: a property drives it and the flat span log through the
   same random calls and holds the log to exactly its counters, spans
   and op completions. *)

module Trace = P2p_sim.Trace

let op_kind_to_string = Trace.op_kind_to_string

type span = {
  span_id : int;
  parent : int;
  span_op : int;
  tier : string;
  phase : string;
  span_src : int option;
  span_dst : int option;
  span_start : float;
  mutable span_stop : float option;
  span_label : string;
  mutable span_outcome : string;
}

type op_completion = {
  comp_op : int;
  comp_kind : string;
  comp_start : float;
  comp_stop : float;
  comp_sampled : bool;
}

type t = {
  capacity : int;
  mutable next_op : int;
  active : bool;
  (* head-based op sampling: the decision is a pure hash of the op id, so
     an unsampled op costs one integer compare per begin_span and
     the sampled set is identical across same-seed runs *)
  sample_rate : float;
  sample_seed : int;
  sample_all : bool;
  sample_threshold : int; (* sampled iff hash62 op < threshold *)
  (* one-entry decision memo: spans arrive in per-op bursts, so this
     turns the per-span hash (boxed Int64 arithmetic) into an integer
     compare on the hot path *)
  mutable memo_op : int;
  mutable memo_sampled : bool;
  mutable ops_sampled : int;
  mutable spans_unsampled : int; (* begin/mark skipped on unsampled ops *)
  (* causal span trees: span id [k] lives at slot [k mod capacity], so
     ending a span is O(1) and eviction is detected by an id mismatch *)
  spans : span option array;
  mutable span_next : int;
  span_first : int; (* first id this trace mints; nonzero gives a live
                       process its own disjoint span-id range *)
  mutable span_retained : int;
  mutable span_orphans : int; (* still-open spans evicted by wraparound *)
  mutable orphan_ends : int; (* end_span on a never-minted id *)
  mutable evicted_ends : int; (* end_span on an already-evicted id *)
  mutable span_mismatches : int; (* double end, or time running backwards *)
  mutable spans_suppressed : int; (* begin after the parent had closed *)
  mutable spans_clamped : int; (* stop clamped to the parent's stop *)
  mutable resets : int; (* reset calls: span ids restart after each *)
  op_roots : (int, int) Hashtbl.t; (* open op id -> its root span id *)
  (* exact latency accounting for 100% of ops, independent of sampling *)
  open_ops : (int, string * float) Hashtbl.t; (* op id -> kind, start *)
  mutable op_listener : (op_completion -> unit) option;
}

let two_pow_62 = 4611686018427387904.0

let create ~capacity ?(sample_rate = 1.0) ?(sample_seed = 0)
    ?(first_span_id = 0) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  if not (sample_rate >= 0.0 && sample_rate <= 1.0) then
    invalid_arg "Trace.create: sample_rate must be in [0, 1]";
  if first_span_id < 0 then
    invalid_arg "Trace.create: first_span_id must be >= 0";
  {
    capacity;
    next_op = 0;
    active = true;
    sample_rate;
    sample_seed;
    sample_all = sample_rate >= 1.0;
    sample_threshold =
      (if sample_rate >= 1.0 then max_int
       else int_of_float (sample_rate *. two_pow_62));
    memo_op = -1;
    memo_sampled = false;
    ops_sampled = 0;
    spans_unsampled = 0;
    spans = Array.make capacity None;
    span_next = first_span_id;
    span_first = first_span_id;
    span_retained = 0;
    span_orphans = 0;
    orphan_ends = 0;
    evicted_ends = 0;
    span_mismatches = 0;
    spans_suppressed = 0;
    spans_clamped = 0;
    resets = 0;
    op_roots = Hashtbl.create 64;
    open_ops = Hashtbl.create 64;
    op_listener = None;
  }

let disabled =
  {
    capacity = 1;
    next_op = 0;
    active = false;
    sample_rate = 1.0;
    sample_seed = 0;
    sample_all = true;
    sample_threshold = max_int;
    memo_op = -1;
    memo_sampled = false;
    ops_sampled = 0;
    spans_unsampled = 0;
    spans = [| None |];
    span_next = 0;
    span_first = 0;
    span_retained = 0;
    span_orphans = 0;
    orphan_ends = 0;
    evicted_ends = 0;
    span_mismatches = 0;
    spans_suppressed = 0;
    spans_clamped = 0;
    resets = 0;
    op_roots = Hashtbl.create 1;
    open_ops = Hashtbl.create 1;
    op_listener = None;
  }

let enabled t = t.active

let sampled t op =
  t.sample_all
  || op = t.memo_op && t.memo_sampled
  ||
  if op = t.memo_op then false
  else begin
    let d = op >= 0 && P2p_sim.Rng.hash62 ~seed:t.sample_seed op < t.sample_threshold in
    t.memo_op <- op;
    t.memo_sampled <- d;
    d
  end

let sample_rate t = t.sample_rate

(* --- causal spans --- *)

let find_span t id =
  if id < 0 then None
  else
    match t.spans.(id mod t.capacity) with
    | Some s when s.span_id = id -> Some s
    | _ -> None

let mint_span t ~time ~op ~tier ~phase ~parent ?src ?dst label =
  let id = t.span_next in
  let slot = id mod t.capacity in
  (match t.spans.(slot) with
   | Some old when old.span_stop = None -> t.span_orphans <- t.span_orphans + 1
   | _ -> ());
  t.spans.(slot) <-
    Some
      {
        span_id = id;
        parent;
        span_op = op;
        tier;
        phase;
        span_src = src;
        span_dst = dst;
        span_start = time;
        span_stop = None;
        span_label = label;
        span_outcome = "";
      };
  t.span_next <- id + 1;
  if t.span_retained < t.capacity then t.span_retained <- t.span_retained + 1;
  id

let begin_span t ~time ~op ~tier ~phase ?parent ?src ?dst label =
  if not t.active then -1
  else if not (sampled t op) then begin
    (* counted separately from suppression: the op was healthy, the
       observer just chose not to watch it *)
    t.spans_unsampled <- t.spans_unsampled + 1;
    -1
  end
  else
    let chosen =
      match parent with Some p -> Some p | None -> Hashtbl.find_opt t.op_roots op
    in
    match chosen with
    | None ->
      (* the op has already completed (or never opened a root): its causal
         tree is closed, so late work — flood tails, stale timers — is
         suppressed rather than recorded outside the parent interval *)
      t.spans_suppressed <- t.spans_suppressed + 1;
      -1
    | Some p -> (
      match find_span t p with
      | Some ps when ps.span_stop <> None ->
        t.spans_suppressed <- t.spans_suppressed + 1;
        -1
      | _ -> mint_span t ~time ~op ~tier ~phase ~parent:p ?src ?dst label)

let end_span t ~time id =
  if t.active && id >= 0 then
    match find_span t id with
    | None ->
      (* ids below the retained window were minted and then overwritten by
         wraparound — a capacity artifact, not a protocol bug — so they
         get their own counter; anything else is a true orphan *)
      if id >= t.span_first && id < t.span_next - t.span_retained then
        t.evicted_ends <- t.evicted_ends + 1
      else t.orphan_ends <- t.orphan_ends + 1
    | Some s -> (
      match s.span_stop with
      | Some _ -> t.span_mismatches <- t.span_mismatches + 1
      | None ->
        let limit =
          match find_span t s.parent with Some p -> p.span_stop | None -> None
        in
        let stop =
          match limit with
          | Some ps when ps < time ->
            t.spans_clamped <- t.spans_clamped + 1;
            ps
          | _ -> time
        in
        if time < s.span_start then t.span_mismatches <- t.span_mismatches + 1;
        s.span_stop <- Some (Float.max stop s.span_start))

let mark_span t ~time ~op ~tier ~phase ?parent ?src ?dst label =
  let id = begin_span t ~time ~op ~tier ~phase ?parent ?src ?dst label in
  end_span t ~time id

let begin_op t ~time ~kind detail =
  let id = t.next_op in
  t.next_op <- t.next_op + 1;
  if t.active then begin
    (* every op is accounted exactly, sampled or not: percentile gates
       must not depend on the sample rate *)
    Hashtbl.replace t.open_ops id (op_kind_to_string kind, time);
    if sampled t id then begin
      t.ops_sampled <- t.ops_sampled + 1;
      let root =
        mint_span t ~time ~op:id ~tier:"op" ~phase:(op_kind_to_string kind)
          ~parent:(-1) detail
      in
      Hashtbl.replace t.op_roots id root
    end
  end;
  id

(* Like {!begin_op} for an operation whose id was minted elsewhere — a
   client request id arriving over the wire.  The externally-chosen id
   is registered for exact completion accounting and, when sampled,
   given a root span carrying [src]/[dst] so cross-process exports place
   it on the right process track.  [next_op] is bumped past [op] so a
   later {!begin_op} never re-mints the id. *)
let begin_extern_op t ~time ~op ~kind ?src ?dst detail =
  if op >= t.next_op then t.next_op <- op + 1;
  if t.active then begin
    Hashtbl.replace t.open_ops op (op_kind_to_string kind, time);
    if sampled t op then begin
      t.ops_sampled <- t.ops_sampled + 1;
      let root =
        mint_span t ~time ~op ~tier:"op" ~phase:(op_kind_to_string kind)
          ~parent:(-1) ?src ?dst detail
      in
      Hashtbl.replace t.op_roots op root
    end
  end

(* The completion is reported to the listener first, sampled or not;
   the outcome is formatted only for an op whose root span is still
   open, since nothing else would ever read it. *)
let end_op t ~time ~op fmt =
  let root =
    if not t.active then None
    else begin
      (match Hashtbl.find_opt t.open_ops op with
       | None -> ()
       | Some (kind, start) ->
         Hashtbl.remove t.open_ops op;
         (match t.op_listener with
          | None -> ()
          | Some f ->
            f
              {
                comp_op = op;
                comp_kind = kind;
                comp_start = start;
                comp_stop = time;
                comp_sampled = sampled t op;
              }));
      let root = Hashtbl.find_opt t.op_roots op in
      Hashtbl.remove t.op_roots op;
      root
    end
  in
  match root with
  | None -> Printf.ikfprintf ignore () fmt
  | Some root ->
    Printf.ksprintf
      (fun outcome ->
        (match find_span t root with
         | Some s -> s.span_outcome <- outcome
         | None -> ());
        end_span t ~time root)
      fmt

let on_op_complete t f =
  if t.active then
    match t.op_listener with
    | None -> t.op_listener <- Some f
    | Some g ->
      t.op_listener <-
        Some
          (fun c ->
            g c;
            f c)

let op_root_span t op = Hashtbl.find_opt t.op_roots op

let find = find_span

let capacity t = t.capacity

let span_window t = (t.span_next - t.span_retained, t.span_next)

let iter_spans t ?(from = min_int) f =
  for id = max from (t.span_next - t.span_retained) to t.span_next - 1 do
    match t.spans.(id mod t.capacity) with Some s -> f s | None -> assert false
  done

let spans t =
  let start = t.span_next - t.span_retained in
  List.init t.span_retained (fun i ->
      match find_span t (start + i) with Some s -> s | None -> assert false)

let spans_of_op t op = List.filter (fun s -> s.span_op = op) (spans t)

let span_orphans t = t.span_orphans

let orphan_ends t = t.orphan_ends

let evicted_ends t = t.evicted_ends

let ops_sampled t = t.ops_sampled

let spans_unsampled t = t.spans_unsampled

let span_mismatches t = t.span_mismatches

let spans_suppressed t = t.spans_suppressed

let spans_clamped t = t.spans_clamped

let ops_started t = t.next_op

let total_recorded t = t.span_next - t.span_first

let clear t =
  Array.fill t.spans 0 t.capacity None;
  t.span_retained <- 0;
  Hashtbl.reset t.op_roots;
  Hashtbl.reset t.open_ops

let resets t = t.resets

let reset t =
  clear t;
  t.resets <- t.resets + 1;
  t.next_op <- 0;
  t.span_next <- t.span_first;
  t.span_orphans <- 0;
  t.orphan_ends <- 0;
  t.evicted_ends <- 0;
  t.span_mismatches <- 0;
  t.spans_suppressed <- 0;
  t.spans_clamped <- 0;
  t.ops_sampled <- 0;
  t.spans_unsampled <- 0

