type kind = One_shot | Periodic

(* Armed: a live entry sits in the event queue, and [handle] is it.
   Fired: a one-shot ran to completion (periodics re-arm before running
   the action, so they only reach Fired through the action cancelling
   them mid-tick).  Cancelled: disarmed by the owner.  Outside Armed,
   [handle] is a spent handle that is never cancelled again.  A cancel
   that arrives after the timer already fired is a silent no-op counted
   under [cancel_late] — it must NOT touch the queue, or the dead handle
   would linger as a ghost entry until compaction. *)
type state = Armed | Fired | Cancelled

type t = {
  engine : Engine.t;
  delay : float;
  kind : kind;
  label : string;
  action : unit -> unit;
  fire : unit -> unit;  (* [fun () -> fire t], built once so a re-arm allocates no closure *)
  mutable handle : Engine.handle;
  mutable state : state;
}

let rec arm t =
  t.state <- Armed;
  t.handle <- Engine.schedule ~label:t.label t.engine ~delay:t.delay t.fire

and fire t =
  t.state <- Fired;
  (match t.kind with Periodic -> arm t | One_shot -> ());
  t.action ()

let make engine ~delay kind label action =
  let rec t =
    {
      engine;
      delay;
      kind;
      label;
      action;
      fire = (fun () -> fire t);
      handle = Event_queue.null_handle;
      state = Armed;
    }
  in
  arm t;
  t

let one_shot ?(label = "timer") engine ~delay action = make engine ~delay One_shot label action

let periodic ?(label = "timer") engine ~period action =
  make engine ~delay:period Periodic label action

let cancel t =
  match t.state with
  | Armed ->
    Engine.cancel t.handle;
    t.state <- Cancelled
  | Fired ->
    t.state <- Cancelled;
    Engine.note_cancel_late t.engine
  | Cancelled -> () (* idempotent: there is no queue entry to kill *)

let reset t =
  if t.state = Armed then Engine.cancel t.handle;
  arm t

let active t = t.state = Armed
