module Trace = P2p_sim.Trace

let metrics_to_string registry = Json.to_string (Registry.to_json registry)

(* --- Chrome trace-event / Perfetto export ---

   One complete event (ph "X") per finished span: pid is the peer the
   work ran on (the destination host of message-backed spans; pid 0 is
   the synthetic "ops" process holding root spans), tid is the
   operation id, timestamps are simulated ms scaled to the format's
   microseconds.  Open spans are skipped — the trace clamps children
   into their parents, so every emitted event nests properly in
   ui.perfetto.dev.  Process-name metadata (ph "M") labels each peer. *)

let span_pid (s : Trace.span) =
  match (s.Trace.span_dst, s.Trace.span_src) with
  | Some d, _ -> d
  | None, Some src -> src
  | None, None -> 0

let span_event ((s : Trace.span), stop) =
  let outcome =
    if s.Trace.parent < 0 then [ ("outcome", Json.String s.Trace.span_outcome) ]
    else []
  in
  Json.Obj
    [
      ("name", Json.String s.Trace.phase);
      ("cat", Json.String s.Trace.tier);
      ("ph", Json.String "X");
      ("ts", Json.Float (s.Trace.span_start *. 1000.0));
      ("dur", Json.Float ((stop -. s.Trace.span_start) *. 1000.0));
      ("pid", Json.Int (span_pid s));
      ("tid", Json.Int s.Trace.span_op);
      ( "args",
        Json.Obj
          ([
             ("op", Json.Int s.Trace.span_op);
             ("span", Json.Int s.Trace.span_id);
             ("parent", Json.Int s.Trace.parent);
             ("label", Json.String s.Trace.span_label);
           ]
          @ outcome) );
    ]

let process_name pid =
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ( "args",
        Json.Obj
          [
            ( "name",
              Json.String (if pid = 0 then "ops" else Printf.sprintf "peer %d" pid) );
          ] );
    ]

(* The completed spans with their stops, and the sorted pids they run on:
   the metadata events are derived from the pids, the span events are
   built one at a time by whoever consumes them. *)
let completed trace =
  let spans =
    List.filter_map
      (fun (s : Trace.span) -> Option.map (fun stop -> (s, stop)) s.Trace.span_stop)
      (Trace.spans trace)
  in
  let pids = Hashtbl.create 16 in
  List.iter (fun (s, _) -> Hashtbl.replace pids (span_pid s) ()) spans;
  (spans, List.sort compare (Hashtbl.fold (fun pid () acc -> pid :: acc) pids []))

let chrome_events trace =
  let spans, pids = completed trace in
  List.map process_name pids @ List.map span_event spans

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_trace ~path trace =
  let spans, pids = completed trace in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let first = ref true in
      let emit json =
        output_string oc (if !first then "[" else ",\n");
        first := false;
        output_string oc (Json.to_string json)
      in
      List.iter (fun pid -> emit (process_name pid)) pids;
      List.iter (fun s -> emit (span_event s)) spans;
      output_string oc (if !first then "[]\n" else "]\n"))

let write_metrics ~path registry = write_file ~path (metrics_to_string registry)

let write_metrics_csv ~path registry = write_file ~path (Registry.to_csv registry)
