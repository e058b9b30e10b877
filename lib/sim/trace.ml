type op_kind =
  | Insert
  | Lookup
  | T_join
  | S_join
  | Leave
  | Repair
  | Keyword
  | Replicate
  | Anti_entropy
  | Custom of string

let op_kind_to_string = function
  | Insert -> "insert"
  | Lookup -> "lookup"
  | T_join -> "t-join"
  | S_join -> "s-join"
  | Leave -> "leave"
  | Repair -> "repair"
  | Keyword -> "keyword"
  | Replicate -> "replicate"
  | Anti_entropy -> "anti-entropy"
  | Custom s -> s

let op_kind_of_string = function
  | "insert" -> Insert
  | "lookup" -> Lookup
  | "t-join" -> T_join
  | "s-join" -> S_join
  | "leave" -> Leave
  | "repair" -> Repair
  | "keyword" -> Keyword
  | "replicate" -> Replicate
  | "anti-entropy" -> Anti_entropy
  | s -> Custom s

type span = {
  span_id : int;
  parent : int;
  span_op : int;
  tier : string;
  phase : string;
  span_src : int option;
  span_dst : int option;
  span_start : float;
  span_stop : float option;
  span_label : string;
  span_outcome : string;
}

type op_completion = {
  comp_op : int;
  comp_kind : string;
  comp_start : float;
  comp_stop : float;
  comp_sampled : bool;
}

(* An open op that did not fit the direct-mapped table (see [op_put]). *)
type spilled = { s_kind : string; s_start : float; s_root : int }

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
     turns the per-span hash (a SplitMix64 step) into an integer compare
     on the hot path *)
  mutable memo_op : int;
  mutable memo_sampled : bool;
  mutable ops_sampled : int;
  mutable spans_unsampled : int; (* begin/mark skipped on unsampled ops *)
  (* Causal spans, one column per field.  The retained ids are the window
     [span_next - span_retained, span_next), laid out as a ring from slot
     [s_head] (the oldest).  The columns grow by half again when the
     window fills them, up to [capacity] slots; from then on a new span
     overwrites the oldest. *)
  mutable s_parent : int array;
  mutable s_op : int array;
  mutable s_src : int array; (* [no_host]: none *)
  mutable s_dst : int array;
  mutable s_name : int array; (* index into [tiers]/[phases] *)
  mutable s_start : Float.Array.t;
  mutable s_stop : Float.Array.t; (* nan while open *)
  mutable s_label : string array;
  mutable s_outcome : string array;
  mutable s_head : int;
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
  (* interned (tier, phase) pairs: a handful per run *)
  mutable tiers : string array;
  mutable phases : string array;
  mutable names : int;
  mutable name_memo : int;
  (* Exact accounting for 100% of ops, independent of sampling: every
     open op id >= 0 sits at slot [op land (length - 1)] of a
     power-of-two table, which doubles when a slot is taken and the
     table is still small beside the open count; an op that finds its
     slot taken otherwise (a long-open op in the way, or client-chosen
     ids far apart), or whose id is negative, goes to [spill]. *)
  mutable op_ids : int array; (* [no_op]: free slot *)
  mutable op_kinds : string array;
  mutable op_starts : Float.Array.t;
  mutable op_roots : int array; (* root span id, or -1 for an unsampled op *)
  mutable op_count : int; (* entries in the table *)
  spill : (int, spilled) Hashtbl.t;
  mutable op_listener : (op_completion -> unit) option;
}

let two_pow_62 = 4611686018427387904.0

let no_host = min_int

let no_op = min_int

let make ~capacity ~active ~sample_rate ~sample_seed ~first_span_id =
  {
    capacity;
    next_op = 0;
    active;
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
    s_parent = [||];
    s_op = [||];
    s_src = [||];
    s_dst = [||];
    s_name = [||];
    s_start = Float.Array.create 0;
    s_stop = Float.Array.create 0;
    s_label = [||];
    s_outcome = [||];
    s_head = 0;
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
    tiers = [||];
    phases = [||];
    names = 0;
    name_memo = 0;
    op_ids = [||];
    op_kinds = [||];
    op_starts = Float.Array.create 0;
    op_roots = [||];
    op_count = 0;
    spill = Hashtbl.create 1;
    op_listener = None;
  }

let create ~capacity ?(sample_rate = 1.0) ?(sample_seed = 0)
    ?(first_span_id = 0) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  if not (sample_rate >= 0.0 && sample_rate <= 1.0) then
    invalid_arg "Trace.create: sample_rate must be in [0, 1]";
  if first_span_id < 0 then
    invalid_arg "Trace.create: first_span_id must be >= 0";
  make ~capacity ~active:true ~sample_rate ~sample_seed ~first_span_id

let disabled =
  make ~capacity:1 ~active:false ~sample_rate:1.0 ~sample_seed:0 ~first_span_id:0

let enabled t = t.active

let sampled t op =
  t.sample_all
  || op = t.memo_op && t.memo_sampled
  ||
  if op = t.memo_op then false
  else begin
    let d = op >= 0 && Rng.hash62 ~seed:t.sample_seed op < t.sample_threshold in
    t.memo_op <- op;
    t.memo_sampled <- d;
    d
  end

let sample_rate t = t.sample_rate

(* --- causal spans --- *)

let rec find_name t tier phase i =
  if i = t.names then -1
  else if t.tiers.(i) == tier && t.phases.(i) == phase then i
  else find_name t tier phase (i + 1)

let rec find_equal_name t tier phase i =
  if i = t.names then -1
  else if String.equal t.tiers.(i) tier && String.equal t.phases.(i) phase then i
  else find_equal_name t tier phase (i + 1)

let add_name t tier phase =
  if t.names = Array.length t.tiers then begin
    let n = max 8 (2 * t.names) in
    let grow a = Array.append a (Array.make (n - t.names) "") in
    t.tiers <- grow t.tiers;
    t.phases <- grow t.phases
  end;
  t.tiers.(t.names) <- tier;
  t.phases.(t.names) <- phase;
  t.names <- t.names + 1;
  t.names - 1

(* Callers pass string literals, so a pair is almost always found by
   physical equality; comparing contents is the fallback. *)
let intern t tier phase =
  let m = t.name_memo in
  if m < t.names && t.tiers.(m) == tier && t.phases.(m) == phase then m
  else begin
    let i =
      match find_name t tier phase 0 with
      | -1 -> (
        match find_equal_name t tier phase 0 with -1 -> add_name t tier phase | i -> i)
      | i -> i
    in
    t.name_memo <- i;
    i
  end

let retained t id = id >= t.span_next - t.span_retained && id < t.span_next

(* The slot of a retained span. *)
let slot t id =
  let s = t.s_head + (id - (t.span_next - t.span_retained)) in
  let n = Array.length t.s_parent in
  if s >= n then s - n else s

(* The stop of a retained span: nan while it is open. *)
let stop_at t id = Float.Array.get t.s_stop (slot t id)

(* Re-lay the retained window into [n] slots, oldest at slot 0. *)
let resize t n =
  let old = Array.length t.s_parent and head = t.s_head and kept = t.span_retained in
  let first = min kept (old - head) in
  let move make blit a =
    let b = make n in
    blit a head b 0 first;
    blit a 0 b first (kept - first);
    b
  in
  let ints = move (fun n -> Array.make n 0) Array.blit
  and floats = move (fun n -> Float.Array.make n Float.nan) Float.Array.blit
  and strings = move (fun n -> Array.make n "") Array.blit in
  t.s_parent <- ints t.s_parent;
  t.s_op <- ints t.s_op;
  t.s_src <- ints t.s_src;
  t.s_dst <- ints t.s_dst;
  t.s_name <- ints t.s_name;
  t.s_start <- floats t.s_start;
  t.s_stop <- floats t.s_stop;
  t.s_label <- strings t.s_label;
  t.s_outcome <- strings t.s_outcome;
  t.s_head <- 0

let mint_span t ~time ~op ~name ~parent ~src ~dst label =
  let id = t.span_next in
  let slots = Array.length t.s_parent in
  if t.span_retained = slots then
    if slots < t.capacity then resize t (min t.capacity (max 64 (slots + (slots / 2))))
    else begin
      (* full: the oldest span gives up its slot *)
      if Float.is_nan (Float.Array.get t.s_stop t.s_head) then
        (* ... and it never closed *)
        t.span_orphans <- t.span_orphans + 1;
      t.s_head <- (if t.s_head + 1 = slots then 0 else t.s_head + 1);
      t.span_retained <- t.span_retained - 1
    end;
  t.span_next <- id + 1;
  t.span_retained <- t.span_retained + 1;
  let s = slot t id in
  t.s_parent.(s) <- parent;
  t.s_op.(s) <- op;
  t.s_src.(s) <- src;
  t.s_dst.(s) <- dst;
  t.s_name.(s) <- name;
  Float.Array.set t.s_start s time;
  Float.Array.set t.s_stop s Float.nan;
  t.s_label.(s) <- label;
  t.s_outcome.(s) <- "";
  id

(* --- open ops --- *)

let op_find t op =
  let n = Array.length t.op_ids in
  if op >= 0 && n > 0 && t.op_ids.(op land (n - 1)) = op then op land (n - 1) else -1

let op_free t i =
  t.op_ids.(i) <- no_op;
  t.op_kinds.(i) <- "";
  t.op_count <- t.op_count - 1

let rec op_put t op kind start root =
  let n = Array.length t.op_ids in
  let i = op land (n - 1) in
  if op < 0 || (Hashtbl.length t.spill > 0 && Hashtbl.mem t.spill op) then
    Hashtbl.replace t.spill op { s_kind = kind; s_start = start; s_root = root }
  else if n > 0 && (t.op_ids.(i) = op || t.op_ids.(i) = no_op) then begin
    if t.op_ids.(i) = no_op then t.op_count <- t.op_count + 1;
    t.op_ids.(i) <- op;
    t.op_kinds.(i) <- kind;
    Float.Array.set t.op_starts i start;
    t.op_roots.(i) <- root
  end
  else if n < max 64 (2 * (t.op_count + 1)) then begin
    let m = max 64 (2 * n) in
    let ids = t.op_ids and kinds = t.op_kinds and starts = t.op_starts
    and roots = t.op_roots in
    t.op_ids <- Array.make m no_op;
    t.op_kinds <- Array.make m "";
    t.op_starts <- Float.Array.make m 0.0;
    t.op_roots <- Array.make m (-1);
    t.op_count <- 0;
    Array.iteri
      (fun j id ->
        if id <> no_op then
          op_put t id kinds.(j) (Float.Array.get starts j) roots.(j))
      ids;
    op_put t op kind start root
  end
  else Hashtbl.replace t.spill op { s_kind = kind; s_start = start; s_root = root }

(* The root span id of open op [op]: -1 when it is unsampled, -2 when it
   is not open. *)
let op_root t op =
  match op_find t op with
  | -1 -> (
    if Hashtbl.length t.spill = 0 then -2
    else match Hashtbl.find_opt t.spill op with Some e -> e.s_root | None -> -2)
  | i -> t.op_roots.(i)

let begin_span t ~time ~op ~tier ~phase ?parent ?(src = no_host) ?(dst = no_host)
    label =
  if not t.active then -1
  else if not (sampled t op) then begin
    (* counted separately from suppression: the op was healthy, the
       observer just chose not to watch it *)
    t.spans_unsampled <- t.spans_unsampled + 1;
    -1
  end
  else
    let p = match parent with Some p -> p | None -> op_root t op in
    if
      (* no root: the op has already completed (or never opened one), so
         its causal tree is closed, and late work — flood tails, stale
         timers — is suppressed rather than recorded outside the parent
         interval *)
      (match parent with None -> p < 0 | Some _ -> false)
      || (retained t p && not (Float.is_nan (stop_at t p)))
    then begin
      t.spans_suppressed <- t.spans_suppressed + 1;
      -1
    end
    else mint_span t ~time ~op ~name:(intern t tier phase) ~parent:p ~src ~dst label

let end_span t ~time id =
  if t.active && id >= 0 then
    if not (retained t id) then
      (* ids below the retained window were minted and then overwritten by
         wraparound — a capacity artifact, not a protocol bug — so they
         get their own counter; anything else is a true orphan *)
      if id >= t.span_first && id < t.span_next - t.span_retained then
        t.evicted_ends <- t.evicted_ends + 1
      else t.orphan_ends <- t.orphan_ends + 1
    else
      let s = slot t id in
      if not (Float.is_nan (Float.Array.get t.s_stop s)) then
        t.span_mismatches <- t.span_mismatches + 1
      else begin
        let p = t.s_parent.(s) in
        let stop =
          if retained t p then begin
            let ps = stop_at t p in
            if ps < time then begin
              t.spans_clamped <- t.spans_clamped + 1;
              ps
            end
            else time
          end
          else time
        in
        let start = Float.Array.get t.s_start s in
        if time < start then t.span_mismatches <- t.span_mismatches + 1;
        Float.Array.set t.s_stop s (Float.max stop start)
      end

let mark_span t ~time ~op ~tier ~phase ?parent ?src ?dst label =
  let id = begin_span t ~time ~op ~tier ~phase ?parent ?src ?dst label in
  end_span t ~time id

let open_op t ~time ~op ~kind ~src ~dst detail =
  (* every op is accounted exactly, sampled or not: percentile gates
     must not depend on the sample rate *)
  let kind = op_kind_to_string kind in
  let root =
    if sampled t op then begin
      t.ops_sampled <- t.ops_sampled + 1;
      mint_span t ~time ~op ~name:(intern t "op" kind) ~parent:(-1) ~src ~dst detail
    end
    else -1
  in
  op_put t op kind time root

let begin_op t ~time ~kind detail =
  let id = t.next_op in
  t.next_op <- t.next_op + 1;
  if t.active then open_op t ~time ~op:id ~kind ~src:no_host ~dst:no_host detail;
  id

(* Like {!begin_op} for an operation whose id was minted elsewhere — a
   client request id arriving over the wire.  The externally-chosen id
   is registered for exact completion accounting and, when sampled,
   given a root span carrying [src]/[dst] so cross-process exports place
   it on the right process track.  [next_op] is bumped past [op] so a
   later {!begin_op} never re-mints the id. *)
let begin_extern_op t ~time ~op ~kind ?(src = no_host) ?(dst = no_host) detail =
  if op >= t.next_op then t.next_op <- op + 1;
  if t.active then open_op t ~time ~op ~kind ~src ~dst detail

(* Close open op [op]: report it to the listener and return its root span
   id (-1 when unsampled or not open). *)
let close_op t ~time op =
  let report kind start root =
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
         });
    root
  in
  match op_find t op with
  | -1 -> (
    match Hashtbl.find_opt t.spill op with
    | None -> -1
    | Some e ->
      Hashtbl.remove t.spill op;
      report e.s_kind e.s_start e.s_root)
  | i ->
    let kind = t.op_kinds.(i) and start = Float.Array.get t.op_starts i
    and root = t.op_roots.(i) in
    op_free t i;
    report kind start root

(* The completion is reported to the listener first, sampled or not;
   the outcome is formatted only for an op whose root span is still
   open, since nothing else would ever read it. *)
let end_op t ~time ~op fmt =
  let root = if t.active then close_op t ~time op else -1 in
  if root < 0 then Printf.ikfprintf ignore () fmt
  else
    Printf.ksprintf
      (fun outcome ->
        if retained t root then t.s_outcome.(slot t root) <- outcome;
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

let op_root_span t op = match op_root t op with r when r >= 0 -> Some r | _ -> None

(* --- views --- *)

let view t id =
  let s = slot t id in
  let host h = if h = no_host then None else Some h in
  let stop = Float.Array.get t.s_stop s in
  let name = t.s_name.(s) in
  {
    span_id = id;
    parent = t.s_parent.(s);
    span_op = t.s_op.(s);
    tier = t.tiers.(name);
    phase = t.phases.(name);
    span_src = host t.s_src.(s);
    span_dst = host t.s_dst.(s);
    span_start = Float.Array.get t.s_start s;
    span_stop = (if Float.is_nan stop then None else Some stop);
    span_label = t.s_label.(s);
    span_outcome = t.s_outcome.(s);
  }

let find t id = if retained t id then Some (view t id) else None

let inject_stop t id stop = if retained t id then Float.Array.set t.s_stop (slot t id) stop

let capacity t = t.capacity

let span_window t = (t.span_next - t.span_retained, t.span_next)

let iter_spans t ?(from = min_int) f =
  for id = max from (t.span_next - t.span_retained) to t.span_next - 1 do
    f (view t id)
  done

let spans t =
  let start = t.span_next - t.span_retained in
  List.init t.span_retained (fun i -> view t (start + i))

let spans_of_op t op =
  let acc = ref [] in
  for id = t.span_next - 1 downto t.span_next - t.span_retained do
    if t.s_op.(slot t id) = op then acc := view t id :: !acc
  done;
  !acc

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
  t.span_retained <- 0;
  resize t 0;
  t.op_ids <- [||];
  t.op_kinds <- [||];
  t.op_starts <- Float.Array.create 0;
  t.op_roots <- [||];
  t.op_count <- 0;
  Hashtbl.reset t.spill

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
