(* Child processes of the benchmark.  Every function here waits for the
   processes it starts before it returns, killing them if they outlive
   their deadline. *)

let now = Unix.gettimeofday

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec loop acc =
          match input_line ic with
          | line -> loop (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        loop [])

(* Peak resident set size of a live process, in kB; 0 once it is gone. *)
let vm_hwm_kb pid =
  List.fold_left
    (fun acc line ->
      if String.starts_with ~prefix:"VmHWM:" line then
        try Scanf.sscanf line "VmHWM: %d" Fun.id with Scanf.Scan_failure _ | End_of_file -> acc
      else acc)
    0
    (read_lines (Printf.sprintf "/proc/%d/status" pid))

(* Processes started here and not yet reaped.  [kill_all] is the
   cleanup for when the benchmark itself is stopped or fails. *)
let running = ref []

let kill_all () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !running;
  running := []

type result = {
  lines : (float * string) list;  (** seconds after spawn, stdout line *)
  wall : float;  (** spawn to exit, seconds *)
  status : Unix.process_status;
  hwm_kb : int;  (** highest VmHWM polled *)
}

(* Run [prog args] to completion, timestamping each stdout line and
   polling the child's VmHWM at least every 50 ms and on each read. *)
let run ?(deadline = 170.0) prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin wr Unix.stderr
  in
  running := pid :: !running;
  Unix.close wr;
  let hwm = ref 0 in
  let lines = ref [] in
  let partial = Buffer.create 256 in
  let chunk = Bytes.create 65536 in
  let eof = ref false in
  while not !eof do
    if now () -. t0 > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      eof := true
    end
    else begin
      let readable, _, _ =
        try Unix.select [ rd ] [] [] 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if readable <> [] then begin
        let n = restart_on_eintr (fun () -> Unix.read rd chunk 0 (Bytes.length chunk)) in
        if n = 0 then eof := true
        else begin
          let at = now () -. t0 in
          for i = 0 to n - 1 do
            match Bytes.get chunk i with
            | '\n' ->
              lines := (at, Buffer.contents partial) :: !lines;
              Buffer.clear partial
            | c -> Buffer.add_char partial c
          done
        end
      end;
      hwm := max !hwm (vm_hwm_kb pid)
    end
  done;
  Unix.close rd;
  let _, status = restart_on_eintr (fun () -> Unix.waitpid [] pid) in
  running := List.filter (( <> ) pid) !running;
  { lines = List.rev !lines; wall = now () -. t0; status; hwm_kb = !hwm }
