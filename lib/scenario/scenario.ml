module H = Hybrid_p2p.Hybrid
module Peer = Hybrid_p2p.Peer
module World = Hybrid_p2p.World
module Data_ops = Hybrid_p2p.Data_ops
module Manager = P2p_replication.Manager
module Rng = P2p_sim.Rng
module Churn = P2p_workload.Churn
module Auditor = P2p_audit.Auditor

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
  p : Pipeline.t;
  h : H.t;
  rng : Rng.t;
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

let join_one st ~role =
  let host = H.fresh_host st.h in
  let role = if H.peer_count st.h = 0 then Peer.T_peer else role in
  ignore (H.join st.h ~host ~role () : Peer.t);
  Pipeline.settle st.p;
  st.joined <- st.joined + 1

(* [Rng.pick_list] over [H.peers]'s host order, drawn without the list *)
let random_live st =
  match H.peer_count st.h with
  | 0 -> None
  | n -> Some (World.nth_live_peer (H.world st.h) (Rng.int st.rng n))

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
  Pipeline.settle st.p

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
  Pipeline.settle st.p

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
       Pipeline.settle st.p;
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
    Pipeline.settle st.p;
    st.needs_repair <- false
  | Insert_items count -> insert_items st count
  | Lookup_items count -> lookup_items st count
  | Settle -> Pipeline.settle st.p
  | Advance ms -> Pipeline.advance st.p ~ms
  | Anti_entropy ms -> Option.iter (fun m -> Pipeline.anti_entropy st.p m ~ms) st.replication

let joins script =
  List.fold_left
    (fun acc -> function
      | Join_t | Join_s -> acc + 1
      | Join_many (count, _) -> acc + count
      | Leave_random | Crash_random | Crash_fraction _ | Repair | Insert_items _
      | Lookup_items _ | Settle | Advance _ | Anti_entropy _ ->
        acc)
    0 script

let exec p ~seed ~script =
  let h = Pipeline.hybrid p in
  let st =
    {
      p;
      h;
      rng = Rng.create seed;
      replication = Pipeline.install_replication p;
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
        ignore (Auditor.tick a : P2p_audit.Checks.snapshot);
        {
          audit_ticks = Auditor.ticks a;
          audit_violations = Auditor.violations_total a;
          audit_errors = Auditor.errors_total a;
          timeline = Auditor.timeline a;
        })
      (Pipeline.auditor p)
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

let action_of_token token =
  let num of_string ok s = Option.bind (of_string s) (fun x -> if ok x then Some x else None) in
  let count = num int_of_string_opt (fun n -> n >= 0)
  and fraction = num float_of_string_opt (fun x -> x >= 0.0 && x <= 1.0)
  and ms = num float_of_string_opt (fun x -> x >= 0.0 && Float.is_finite x) in
  match String.split_on_char ':' token with
  | [ "join"; n; ps ] ->
    Option.bind (count n) (fun n -> Option.map (fun ps -> Join_many (n, ps)) (fraction ps))
  | [ "join" ] -> Some (Join_many (1, 0.5))
  | [ "leave" ] -> Some Leave_random
  | [ "crash" ] -> Some Crash_random
  | [ "crash"; f ] -> Option.map (fun f -> Crash_fraction f) (fraction f)
  | [ "repair" ] -> Some Repair
  | [ "insert"; n ] -> Option.map (fun n -> Insert_items n) (count n)
  | [ "lookup"; n ] -> Option.map (fun n -> Lookup_items n) (count n)
  | [ "settle" ] -> Some Settle
  | [ "advance"; t ] -> Option.map (fun t -> Advance t) (ms t)
  | [ "anti-entropy"; t ] -> Option.map (fun t -> Anti_entropy t) (ms t)
  | _ -> None

(* Join_t and Join_s have no token of their own: they print as a
   one-peer join with the role's s-peer fraction. *)
let token_of_action = function
  | Join_t -> "join:1:0"
  | Join_s -> "join:1:1"
  | Join_many (n, ps) -> Printf.sprintf "join:%d:%g" n ps
  | Leave_random -> "leave"
  | Crash_random -> "crash"
  | Crash_fraction f -> Printf.sprintf "crash:%g" f
  | Repair -> "repair"
  | Insert_items n -> Printf.sprintf "insert:%d" n
  | Lookup_items n -> Printf.sprintf "lookup:%d" n
  | Settle -> "settle"
  | Advance t -> Printf.sprintf "advance:%g" t
  | Anti_entropy t -> Printf.sprintf "anti-entropy:%g" t

let script_conv =
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> parse acc rest
    | token :: rest -> (
      match action_of_token token with
      | Some a -> parse (a :: acc) rest
      | None ->
        Error
          (`Msg
             (Printf.sprintf
                "bad script token %S (see --help; N, MS >= 0 and PS, F in [0,1])" token)))
  in
  let print ppf script =
    Format.pp_print_string ppf (String.concat " " (List.map token_of_action script))
  in
  Cmdliner.Arg.conv ((fun text -> parse [] (String.split_on_char ' ' text)), print)
