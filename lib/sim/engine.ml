type handle = Event_queue.handle

type label_stats = { mutable fires : int; mutable cpu_s : float }

(* all-float, so the field is stored unboxed and a write allocates nothing *)
type carved = { mutable inner_s : float }

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : float;
  mutable executed : int;
  root_rng : Rng.t;
  mutable queue_hwm : int;
  mutable cancel_late : int;  (* timer cancels that arrived after the fire *)
  mutable profiling : bool;
  label_table : (string, label_stats) Hashtbl.t;
  carved : carved;  (* CPU the running handler booked to other rows *)
  mutable in_timed : bool;  (* a timed event's handler is running *)
  (* the executor closure, built once — [pop_apply] then runs events
     without a fresh closure per pop *)
  mutable exec : float -> (unit -> unit) -> unit;
}

let execute t time thunk =
  t.clock <- time;
  t.executed <- t.executed + 1;
  thunk ()

let create ~seed () =
  let t =
    {
      queue = Event_queue.create ();
      clock = 0.0;
      executed = 0;
      root_rng = Rng.create seed;
      queue_hwm = 0;
      cancel_late = 0;
      profiling = false;
      label_table = Hashtbl.create 16;
      carved = { inner_s = 0.0 };
      in_timed = false;
      exec = (fun _ _ -> ());
    }
  in
  t.exec <- execute t;
  t

let rng t = t.root_rng

let now t = t.clock

let enable_profiling t = t.profiling <- true

let profiling t = t.profiling

let stats t label =
  match Hashtbl.find_opt t.label_table label with
  | Some s -> s
  | None ->
    let s = { fires = 0; cpu_s = 0.0 } in
    Hashtbl.add t.label_table label s;
    s

let stopwatch = Unix.gettimeofday

(* The queue holds bare thunks.  A labelled event scheduled while
   profiling is on is wrapped here, once, in a closure that times it
   into its label's row, less what it {!charge}d to other rows; every
   other event is queued as given.  The event is timed with the same
   clock as the spans charged out of it. *)
let timed t label f =
  match label with
  | Some label when t.profiling ->
    let s = stats t label in
    fun () ->
      t.carved.inner_s <- 0.0;
      t.in_timed <- true;
      let started = stopwatch () in
      f ();
      t.in_timed <- false;
      s.fires <- s.fires + 1;
      s.cpu_s <- s.cpu_s +. (stopwatch () -. started -. t.carved.inner_s)
  | Some _ | None -> f

let in_timed_event t = t.in_timed

let charge t label ~cpu_s =
  let s = stats t label in
  s.fires <- s.fires + 1;
  s.cpu_s <- s.cpu_s +. cpu_s;
  t.carved.inner_s <- t.carved.inner_s +. cpu_s

let track_depth t =
  let depth = Event_queue.length t.queue in
  if depth > t.queue_hwm then t.queue_hwm <- depth

let add t ~time ~label f =
  let h = Event_queue.add t.queue ~time (timed t label f) in
  track_depth t;
  h

let schedule ?label t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  add t ~time:(t.clock +. delay) ~label f

let schedule_at ?label t ~time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  add t ~time ~label f

(* The fire-and-forget fast path: no handle, and [label] is a plain
   argument so a call site with a hoisted value allocates nothing: the
   thunk itself is the queued event. *)
let schedule_detached t ~label ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule_detached: negative delay";
  Event_queue.add_fast t.queue ~time:(t.clock +. delay) (timed t label f);
  track_depth t

let cancel = Event_queue.cancel

let step t = Event_queue.pop_apply t.queue t.exec

let run t =
  while step t do
    ()
  done

let run_until t ~time =
  while Event_queue.next_time t.queue <= time && step t do
    ()
  done;
  if time > t.clock then t.clock <- time

let next_time t = Event_queue.next_time t.queue

let advance t ~time = t.clock <- Float.max t.clock (Float.min time (next_time t))

let events_executed t = t.executed

let pending t = Event_queue.live_length t.queue

let queue_high_water t = t.queue_hwm

let cancel_late t = t.cancel_late

let note_cancel_late t = t.cancel_late <- t.cancel_late + 1

(* A row exists from a label's first timed schedule; only labels that
   fired are reported. *)
let profile t =
  Hashtbl.fold
    (fun label s acc -> if s.fires > 0 then (label, s.fires, s.cpu_s) :: acc else acc)
    t.label_table []
  |> List.sort compare
