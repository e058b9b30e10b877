(* Wall-clock timers for the live transport, with the same semantics as
   the engine-clock [P2p_sim.Timer]: restartable one-shots and
   periodics, lazy cancellation, and cancel-after-fire as a no-op
   counted by the wheel ([cancel_late]), as the engine counts its own.  Backed by the same
   [Event_queue] binary heap the engine uses — time is whatever the
   clock function supplied at [create] returns (the live loop passes
   milliseconds since its epoch), and the owning event loop drives the
   wheel by calling [run_due] whenever [next_deadline] comes due. *)

open P2p_sim

(* As in [Timer]: [handle] is the queued entry while [Armed], and a
   spent handle that is never cancelled again otherwise. *)
type state = Armed | Fired | Cancelled

type tm = {
  wheel : t;
  delay : float;
  kind : [ `One_shot | `Periodic ];
  action : unit -> unit;
  mutable handle : Event_queue.handle;
  mutable state : state;
}

and t = { q : tm Event_queue.t; clock : unit -> float; mutable cancel_late : int }

let create ~clock = { q = Event_queue.create (); clock; cancel_late = 0 }

let cancel_late t = t.cancel_late

let arm tm =
  tm.handle <- Event_queue.add tm.wheel.q ~time:(tm.wheel.clock () +. tm.delay) tm;
  tm.state <- Armed

let cancel tm =
  match tm.state with
  | Armed ->
    Event_queue.cancel tm.handle;
    tm.state <- Cancelled
  | Fired ->
    tm.state <- Cancelled;
    tm.wheel.cancel_late <- tm.wheel.cancel_late + 1
  | Cancelled -> ()

let reset tm =
  if tm.state = Armed then Event_queue.cancel tm.handle;
  arm tm

let active tm = tm.state = Armed

let timer_ops = { Transport.cancel; reset; active }

let make t ~delay kind action =
  let tm = { wheel = t; delay; kind; action; handle = Event_queue.null_handle; state = Armed } in
  arm tm;
  Transport.Timer (timer_ops, tm)

let one_shot t ~delay action = make t ~delay `One_shot action

let periodic t ~period action = make t ~delay:period `Periodic action

let next_deadline t = Event_queue.peek_time t.q

let pending t = Event_queue.live_length t.q

(* Fire every timer due at or before the current clock reading.  A
   periodic re-arms before its action runs, so the action may cancel or
   reset it; a one-shot is marked [Fired] first for the same reason.
   Periodics re-arm relative to the current clock, not the missed
   deadline: a stalled loop fires each periodic once and moves on rather
   than bursting through every missed interval. *)
let run_due t =
  let now = t.clock () in
  let fired = ref 0 in
  let rec loop () =
    match Event_queue.peek_time t.q with
    | Some time when time <= now -> (
      match Event_queue.pop t.q with
      | None -> ()
      | Some (_, tm) ->
        tm.state <- Fired;
        if tm.kind = `Periodic then arm tm;
        tm.action ();
        incr fired;
        loop ())
    | _ -> ()
  in
  loop ();
  !fired
