(* Critical-path analysis over the causal span trees of a trace.

   Every completed operation owns a root span (tier "op") whose children
   are the timed units of work the op caused — ring hops, flood
   branches, replica probes.  The critical path is reconstructed by a
   backward sweep: starting a cursor at the root's stop, repeatedly pick
   the completed span with the latest stop not after the cursor and a
   start strictly before it, charge its full duration, and move the
   cursor to its start.  The chosen segments are pairwise disjoint and
   contained in the root interval (the trace clamps and suppresses spans
   to keep children inside their parent), so the critical-path length is
   <= the op's total latency by construction. *)

module Trace = P2p_sim.Trace

type segment = { seg_tier : string; seg_phase : string; seg_ms : float }

type op = {
  op_id : int;
  kind : string;  (* the root span's phase: the op kind's wire name *)
  op_start : float;
  op_stop : float;
  total_ms : float;
  critical_ms : float;
  chain : segment list;  (* earliest segment first *)
  span_count : int;  (* completed non-root spans of the op *)
}

let duration (s : Trace.span) =
  match s.Trace.span_stop with
  | Some stop -> stop -. s.Trace.span_start
  | None -> 0.0

let critical_chain ~(root : Trace.span) children =
  (* children sorted by stop descending; one pass keeps the sweep O(n log n) *)
  let stops = function Some x -> x | None -> neg_infinity in
  let sorted =
    List.sort
      (fun (a : Trace.span) b ->
        compare (stops b.Trace.span_stop) (stops a.Trace.span_stop))
      children
  in
  let cursor = ref (match root.Trace.span_stop with Some x -> x | None -> 0.0) in
  let chain = ref [] in
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.span_stop with
      | Some stop when stop <= !cursor && s.Trace.span_start < !cursor ->
        chain :=
          {
            seg_tier = s.Trace.tier;
            seg_phase = s.Trace.phase;
            seg_ms = stop -. s.Trace.span_start;
          }
          :: !chain;
        cursor := s.Trace.span_start
      | _ -> ())
    sorted;
  !chain

let analyze ~(root : Trace.span) children =
  let stop = Option.value root.Trace.span_stop ~default:root.Trace.span_start in
  let chain = critical_chain ~root children in
  {
    op_id = root.Trace.span_op;
    kind = root.Trace.phase;
    op_start = root.Trace.span_start;
    op_stop = stop;
    total_ms = stop -. root.Trace.span_start;
    critical_ms = List.fold_left (fun a c -> a +. c.seg_ms) 0.0 chain;
    chain;
    span_count = List.length children;
  }

(* Children are grouped by span id and read back from the trace one op at
   a time, so the analysis holds no copy of the log. *)
let completed trace =
  let by_op = Hashtbl.create 64 in
  Trace.iter_spans trace (fun (s : Trace.span) ->
      if s.Trace.parent >= 0 && s.Trace.span_stop <> None then
        Hashtbl.replace by_op s.Trace.span_op
          (s.Trace.span_id
          :: (try Hashtbl.find by_op s.Trace.span_op with Not_found -> [])));
  let ops = ref [] in
  Trace.iter_spans trace (fun (s : Trace.span) ->
      if s.Trace.parent = -1 && s.Trace.span_stop <> None then
        let children =
          try Hashtbl.find by_op s.Trace.span_op |> List.filter_map (Trace.find trace)
          with Not_found -> []
        in
        ops := analyze ~root:s children :: !ops);
  List.rev !ops

(* Every op completion, sampled or not, feeds latency/<kind>_total_ms,
   so percentiles and SLO gates stay exact at any sample rate.  The
   handles are cached per kind: the listener runs once per op. *)
let record_totals reg trace =
  let hists = Hashtbl.create 8 in
  Trace.on_op_complete trace (fun (c : Trace.op_completion) ->
      let h =
        match Hashtbl.find hists c.Trace.comp_kind with
        | h -> h
        | exception Not_found ->
          let h =
            Registry.log_histogram reg ~subsystem:"latency"
              ~name:(c.Trace.comp_kind ^ "_total_ms")
          in
          Hashtbl.add hists c.Trace.comp_kind h;
          h
      in
      Log_hist.observe h (c.Trace.comp_stop -. c.Trace.comp_start))

(* Fold the analysis into the registry under subsystem "latency":
   - log-histograms  <kind>_critical_ms  (percentiles; <kind>_total_ms
     is {!record_totals}' listener's)
   - log-histograms  phase_<phase>_ms  (per-phase span durations)
   - gauges          <kind>_tier_<tier>_ms  (critical-path ms per tier)
   - span-health gauges under subsystem "trace". *)
let record reg trace =
  let ops = completed trace in
  Registry.incr
    ~by:(List.length ops)
    (Registry.counter reg ~subsystem:"latency" ~name:"ops_analyzed");
  let tier_totals = Hashtbl.create 16 in
  List.iter
    (fun o ->
      Log_hist.observe
        (Registry.log_histogram reg ~subsystem:"latency"
           ~name:(o.kind ^ "_critical_ms"))
        o.critical_ms;
      List.iter
        (fun seg ->
          let key = (o.kind, seg.seg_tier) in
          Hashtbl.replace tier_totals key
            (seg.seg_ms
            +. (try Hashtbl.find tier_totals key with Not_found -> 0.0)))
        o.chain)
    ops;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tier_totals []
  |> List.sort compare
  |> List.iter (fun ((kind, tier), ms) ->
         Registry.set
           (Registry.gauge reg ~subsystem:"latency"
              ~name:(Printf.sprintf "%s_tier_%s_ms" kind tier))
           ms);
  Trace.iter_spans trace (fun (s : Trace.span) ->
      if s.Trace.parent >= 0 && s.Trace.span_stop <> None then
        Log_hist.observe
          (Registry.log_histogram reg ~subsystem:"latency"
             ~name:("phase_" ^ s.Trace.phase ^ "_ms"))
          (duration s));
  let trace_gauge name v =
    Registry.set
      (Registry.gauge reg ~subsystem:"trace" ~name)
      (float_of_int v)
  in
  trace_gauge "spans_started" (Trace.total_recorded trace);
  trace_gauge "span_orphans" (Trace.span_orphans trace);
  trace_gauge "orphan_ends" (Trace.orphan_ends trace);
  trace_gauge "evicted_ends" (Trace.evicted_ends trace);
  trace_gauge "span_mismatches" (Trace.span_mismatches trace);
  trace_gauge "spans_suppressed" (Trace.spans_suppressed trace);
  trace_gauge "spans_clamped" (Trace.spans_clamped trace);
  trace_gauge "ops_sampled" (Trace.ops_sampled trace);
  trace_gauge "spans_unsampled" (Trace.spans_unsampled trace);
  Registry.set
    (Registry.gauge reg ~subsystem:"trace" ~name:"sample_rate")
    (Trace.sample_rate trace)
