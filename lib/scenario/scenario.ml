module H = Hybrid_p2p.Hybrid
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config
module Data_ops = Hybrid_p2p.Data_ops
module Manager = P2p_replication.Manager
module Rng = P2p_sim.Rng
module Churn = P2p_workload.Churn

type action =
  | Join_t
  | Join_s
  | Join_many of int * float
  | Leave_random
  | Crash_random
  | Crash_fraction of float
  | Repair
  | Insert_items of int
  | Lookup_items of int
  | Settle
  | Advance of float
  | Anti_entropy of float

type audit_summary = {
  audit_ticks : int;
  audit_violations : int;
  audit_errors : int;
  timeline : (float * int) list;
}

type report = {
  joined : int;
  left : int;
  crashed : int;
  inserted : int;
  lookups_ok : int;
  lookups_failed : int;
  final_peers : int;
  final_items : int;
  invariants : (unit, string) result;
  audit : audit_summary option;
}

type state = {
  h : H.t;
  rng : Rng.t;
  auditor : P2p_audit.Auditor.t option;
  replication : Manager.t option;
  mutable keys : string list; (* inserted keys, newest first *)
  mutable key_count : int;
  mutable joined : int;
  mutable left : int;
  mutable crashed : int;
  mutable inserted : int;
  mutable lookups_ok : int;
  mutable lookups_failed : int;
  mutable needs_repair : bool;
}

(* Drive to quiescence; with auditing on, the drain passes through the
   auditor so ticks land at their due times inside the drain. *)
let drain st =
  match st.auditor with
  | None -> H.run st.h
  | Some a -> P2p_audit.Auditor.settle a

let join_one st ~role =
  let host = H.fresh_host st.h in
  let role = if H.peer_count st.h = 0 then Peer.T_peer else role in
  ignore (H.join st.h ~host ~role () : Peer.t);
  drain st;
  st.joined <- st.joined + 1

let random_live st =
  match H.peers st.h with
  | [] -> None
  | all -> Some (Rng.pick_list st.rng all)

let insert_items st count =
  for _ = 1 to count do
    match random_live st with
    | None -> ()
    | Some from ->
      let key = Printf.sprintf "scenario-%06d" st.key_count in
      st.key_count <- st.key_count + 1;
      st.keys <- key :: st.keys;
      st.inserted <- st.inserted + 1;
      H.insert st.h ~from ~key ~value:("v:" ^ key) ()
  done;
  drain st

let lookup_items st count =
  let pool = Array.of_list st.keys in
  for _ = 1 to count do
    if Array.length pool = 0 then st.lookups_failed <- st.lookups_failed + 1
    else
      match random_live st with
      | None -> st.lookups_failed <- st.lookups_failed + 1
      | Some from ->
        let key = Rng.pick st.rng pool in
        H.lookup st.h ~from ~key
          ~on_result:(function
            | Data_ops.Found _ -> st.lookups_ok <- st.lookups_ok + 1
            | Data_ops.Timed_out -> st.lookups_failed <- st.lookups_failed + 1)
          ()
  done;
  drain st

let crash_fraction st fraction =
  let peers = Array.of_list (H.peers st.h) in
  let victims =
    Churn.crash_storm ~rng:st.rng ~population:(Array.length peers) ~fraction
  in
  Array.iter
    (fun i ->
      H.crash st.h peers.(i);
      st.crashed <- st.crashed + 1)
    victims;
  if Array.length victims > 0 then st.needs_repair <- true

let step st = function
  | Join_t -> join_one st ~role:Peer.T_peer
  | Join_s -> join_one st ~role:Peer.S_peer
  | Join_many (count, s_fraction) ->
    for _ = 1 to count do
      let role =
        if Rng.bernoulli st.rng s_fraction then Peer.S_peer else Peer.T_peer
      in
      join_one st ~role
    done
  | Leave_random ->
    (match random_live st with
     | None -> ()
     | Some victim ->
       H.leave st.h victim ();
       drain st;
       st.left <- st.left + 1)
  | Crash_random ->
    (match random_live st with
     | None -> ()
     | Some victim ->
       H.crash st.h victim;
       st.crashed <- st.crashed + 1;
       st.needs_repair <- true)
  | Crash_fraction fraction -> crash_fraction st fraction
  | Repair ->
    H.repair st.h;
    drain st;
    st.needs_repair <- false
  | Insert_items count -> insert_items st count
  | Lookup_items count -> lookup_items st count
  | Settle -> drain st
  | Advance ms ->
    (match st.auditor with
     | None -> H.run_for st.h ms
     | Some a -> P2p_audit.Auditor.advance a ~ms)
  | Anti_entropy ms ->
    (match st.replication with
     | None -> ()
     | Some m ->
       (* the periodic timer keeps the queue non-empty, so bracket it
          around a bounded advance rather than a drain *)
       Manager.start m;
       (match st.auditor with
        | None -> H.run_for st.h ms
        | Some a -> P2p_audit.Auditor.advance a ~ms);
       Manager.stop m;
       drain st)

let run ?audit_interval ?audit_checks ?on_audit h ~seed ~script =
  let auditor =
    match audit_interval with
    | None -> None
    | Some interval ->
      let a = P2p_audit.Auditor.create ~interval ?checks:audit_checks (H.world h) in
      Option.iter (P2p_audit.Auditor.set_on_snapshot a) on_audit;
      Some a
  in
  let replication =
    if (H.config h).Config.replication_factor > 0 then Some (Manager.install (H.world h))
    else None
  in
  let st =
    {
      h;
      rng = Rng.create seed;
      auditor;
      replication;
      keys = [];
      key_count = 0;
      joined = 0;
      left = 0;
      crashed = 0;
      inserted = 0;
      lookups_ok = 0;
      lookups_failed = 0;
      needs_repair = false;
    }
  in
  List.iter (step st) script;
  (* the invariant check presumes crash damage was repaired; do it
     implicitly so every script ends in a checkable state *)
  if st.needs_repair then begin
    H.repair st.h;
    H.run st.h
  end;
  let audit =
    Option.map
      (fun a ->
        (* close with a tick at the final (repaired, drained) state so the
           timeline ends where the run did *)
        ignore (P2p_audit.Auditor.tick a : P2p_audit.Checks.snapshot);
        {
          audit_ticks = P2p_audit.Auditor.ticks a;
          audit_violations = P2p_audit.Auditor.violations_total a;
          audit_errors = P2p_audit.Auditor.errors_total a;
          timeline = P2p_audit.Auditor.timeline a;
        })
      auditor
  in
  let invariants = P2p_audit.Checks.(to_result (final (H.world h))) in
  {
    joined = st.joined;
    left = st.left;
    crashed = st.crashed;
    inserted = st.inserted;
    lookups_ok = st.lookups_ok;
    lookups_failed = st.lookups_failed;
    final_peers = H.peer_count st.h;
    final_items = H.total_items st.h;
    invariants;
    audit;
  }

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "@[<v>joined %d, left %d, crashed %d@,inserted %d items@,lookups: %d ok, %d failed@,final: %d peers, %d items@,invariants: %s@]"
    r.joined r.left r.crashed r.inserted r.lookups_ok r.lookups_failed r.final_peers
    r.final_items
    (match r.invariants with Ok () -> "OK" | Error e -> "VIOLATED: " ^ e);
  match r.audit with
  | None -> ()
  | Some a ->
    Format.fprintf ppf "@,audit: %d ticks, %d violations (%d errors)" a.audit_ticks
      a.audit_violations a.audit_errors
