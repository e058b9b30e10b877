(* Wall-clock spans the benchmark records around its own calls into each
   layer.  They stay in memory and are written once, at the end, as a
   Chrome trace-event file that Perfetto (ui.perfetto.dev) opens. *)

module Json = P2p_obs.Json

type span = {
  track : string;  (** one Perfetto process per workload *)
  cat : string;  (** layer the call went into *)
  name : string;
  start : float;  (** Unix seconds *)
  dur : float;  (** seconds *)
}

type t = { mutable spans : span list }

let create () = { spans = [] }

(* [time t ~track ~cat name f] runs [f], records its span and returns
   its result with the elapsed seconds. *)
let time t ~track ~cat name f =
  let start = Unix.gettimeofday () in
  let r = f () in
  let stop = Unix.gettimeofday () in
  t.spans <- { track; cat; name; start; dur = stop -. start } :: t.spans;
  (r, stop -. start)

let write t ~path =
  let spans = List.rev t.spans in
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let tracks = List.sort_uniq compare (List.map (fun s -> s.track) spans) in
  let pid track =
    let rec find i = function
      | [] -> 0
      | x :: rest -> if x = track then i else find (i + 1) rest
    in
    find 1 tracks
  in
  let us seconds = Json.Float (Float.round (seconds *. 1e7) /. 10.0) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      let first = ref true in
      let emit v =
        if not !first then output_char oc ',';
        first := false;
        output_string oc (Json.to_string v);
        output_char oc '\n'
      in
      List.iter
        (fun track ->
          emit
            (Json.Obj
               [
                 ("name", Json.String "process_name");
                 ("ph", Json.String "M");
                 ("pid", Json.Int (pid track));
                 ("args", Json.Obj [ ("name", Json.String track) ]);
               ]))
        tracks;
      List.iter
        (fun s ->
          emit
            (Json.Obj
               [
                 ("name", Json.String s.name);
                 ("cat", Json.String s.cat);
                 ("ph", Json.String "X");
                 ("ts", us (s.start -. origin));
                 ("dur", us s.dur);
                 ("pid", Json.Int (pid s.track));
                 ("tid", Json.Int 0);
               ]))
        spans;
      output_string oc "]}\n")
