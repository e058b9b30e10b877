(* Reference implementation of five audit checks ([P2p_audit.Checks]):
   [ring_symmetry], [finger_tables], [data_placement],
   [replication_factor] and [load_balance], as plain as they come — a
   host table built on every call, one [World.oracle_owner] search per
   finger, a sorted copy of every store size, both replication scans on
   every call.  Slow, and written for plainness: the tests hold the
   catalogue's one-pass checks to exactly its statuses, violation text
   and gauge floats included. *)

module World = Hybrid_p2p.World
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config
module Data_store = Hybrid_p2p.Data_store
module Intern = Hybrid_p2p.Intern
module Checks = P2p_audit.Checks
module Id_space = P2p_hashspace.Id_space

type collector = {
  who : string;
  mutable acc : Checks.violation list;  (* newest first *)
  mutable gauges : (string * float) list;  (* newest first *)
}

let report col severity ?subject fmt =
  Printf.ksprintf
    (fun detail ->
      col.acc <- { Checks.check = col.who; severity; subject; detail } :: col.acc)
    fmt

let err col = report col Checks.Error

let gauge col name value = col.gauges <- (name, value) :: col.gauges

let status col =
  { Checks.name = col.who; violations = List.rev col.acc; gauges = List.rev col.gauges }

let ring_symmetry ~final w =
  let col = { who = "ring_symmetry"; acc = []; gauges = [] } in
  let arr = World.t_peers w in
  let n = Array.length arr in
  let registered = Hashtbl.create (2 * n) in
  Array.iter (fun p -> Hashtbl.replace registered p.Peer.host ()) arr;
  let mid_join q =
    (not final) && q.Peer.alive && Peer.is_t_peer q
    && not (Hashtbl.mem registered q.Peer.host)
  in
  let busy = ref 0 in
  Array.iter
    (fun p ->
      if not (Peer.quiet p) then incr busy;
      if final then
        if p.Peer.joining then
          err col ~subject:p.Peer.host "t-peer #%d: joining mutex engaged" p.Peer.host
        else if p.Peer.leaving then
          err col ~subject:p.Peer.host "t-peer #%d: leaving mutex engaged" p.Peer.host
        else if p.Peer.join_queue <> [] then
          err col ~subject:p.Peer.host "t-peer #%d: non-empty join queue" p.Peer.host)
    arr;
  gauge col "ring_busy_peers" (float_of_int !busy);
  for i = 0 to n - 1 do
    let a = arr.(i) and b = arr.((i + 1) mod n) in
    if final || (Peer.quiet a && Peer.quiet b) then begin
      (match a.Peer.succ with
       | Some s when s == b || n = 1 -> ()
       | Some s when mid_join s -> ()
       | Some s when not s.Peer.alive ->
         err col ~subject:a.Peer.host "t-peer #%d: successor #%d is dead" a.Peer.host
           s.Peer.host
       | Some s ->
         err col ~subject:a.Peer.host "t-peer #%d: successor #%d, expected #%d"
           a.Peer.host s.Peer.host b.Peer.host
       | None -> err col ~subject:a.Peer.host "t-peer #%d: no successor" a.Peer.host);
      match b.Peer.pred with
      | Some p when p == a || n = 1 -> ()
      | Some p when mid_join p -> ()
      | Some p when not p.Peer.alive ->
        err col ~subject:b.Peer.host "t-peer #%d: predecessor #%d is dead" b.Peer.host
          p.Peer.host
      | Some p ->
        err col ~subject:b.Peer.host "t-peer #%d: predecessor #%d, expected #%d"
          b.Peer.host p.Peer.host a.Peer.host
      | None -> err col ~subject:b.Peer.host "t-peer #%d: no predecessor" b.Peer.host
    end
  done;
  for i = 0 to n - 2 do
    if arr.(i).Peer.p_id = arr.(i + 1).Peer.p_id then
      err col ~subject:arr.(i).Peer.host "t-peers #%d and #%d share p_id %#x"
        arr.(i).Peer.host
        arr.(i + 1).Peer.host
        arr.(i).Peer.p_id
  done;
  status col

let finger_tables ~final:_ w =
  let col = { who = "finger_tables"; acc = []; gauges = [] } in
  if not (World.fingers_fresh w) then begin
    gauge col "fingers_fresh" 0.0;
    status col
  end
  else begin
    gauge col "fingers_fresh" 1.0;
    Array.iter
      (fun p ->
        let fingers = World.fingers w p in
        if Array.length fingers <> Id_space.bits then
          err col ~subject:p.Peer.host "t-peer #%d: finger table has %d entries, want %d"
            p.Peer.host (Array.length fingers) Id_space.bits
        else
          Array.iteri
            (fun k entry ->
              let start = Id_space.finger_start ~base:p.Peer.p_id k in
              match (entry, World.oracle_owner w start) with
              | None, None -> ()
              | Some f, Some expected when f == expected -> ()
              | Some f, Some expected ->
                err col ~subject:p.Peer.host
                  "t-peer #%d: finger[%d] is #%d, oracle says #%d" p.Peer.host k
                  f.Peer.host expected.Peer.host
              | None, Some expected ->
                err col ~subject:p.Peer.host "t-peer #%d: finger[%d] unset, oracle says #%d"
                  p.Peer.host k expected.Peer.host
              | Some f, None ->
                err col ~subject:p.Peer.host "t-peer #%d: finger[%d] is #%d on an empty ring"
                  p.Peer.host k f.Peer.host)
            fingers)
      (World.t_peers w);
    status col
  end

let data_placement ~final w =
  let col = { who = "data_placement"; acc = []; gauges = [] } in
  if Array.length (World.t_peers w) > 0 then begin
    let misplaced = ref 0 in
    World.iter_peers w (fun p ->
        if Data_store.size p.Peer.store > 0 then
          match p.Peer.t_home with
          | None -> ()
          | Some home when not home.Peer.alive -> ()
          | Some home ->
            let boundary_settled =
              final
              || Peer.quiet home
                 && (match home.Peer.pred with
                     | Some pre -> Peer.quiet pre
                     | None -> false)
            in
            if boundary_settled then
              Data_store.iter p.Peer.store (fun ~key ~value:_ ~route_id ->
                  if not (Peer.covers home route_id) then begin
                    incr misplaced;
                    if !misplaced <= 8 then
                      err col ~subject:p.Peer.host
                        "item %S (route_id %#x) at #%d outside segment of #%d" key route_id
                        p.Peer.host home.Peer.host
                  end));
    if !misplaced > 8 then err col "...and %d more misplaced items" (!misplaced - 8);
    gauge col "misplaced_items" (float_of_int !misplaced)
  end;
  status col

let replication_factor ~final w =
  let col = { who = "replication_factor"; acc = []; gauges = [] } in
  let r = w.World.config.Config.replication_factor in
  if r > 0 then begin
    let pending = w.World.replication_pending in
    gauge col "replication_pending" (float_of_int pending);
    let settled = final || (pending = 0 && Array.for_all Peer.quiet (World.t_peers w)) in
    let interner = World.interner w in
    let copies_of = Array.make (Intern.count interner) 0 in
    World.iter_peers w (fun p ->
        Data_store.iter_ids p.Peer.replicas (fun id -> copies_of.(id) <- copies_of.(id) + 1));
    let checked = Bytes.make (Intern.count interner) '\000' in
    let items = ref 0 and copies = ref 0 and under = ref 0 in
    World.iter_peers w (fun p ->
        let expected = ref (-1) in
        Data_store.iter_ids p.Peer.store (fun id ->
            if Bytes.get checked id = '\000' then begin
              Bytes.set checked id '\001';
              incr items;
              let have = copies_of.(id) in
              copies := !copies + have;
              if !expected < 0 then
                expected :=
                  min r
                    (List.length (P2p_replication.Policy.targets w ~primary:p));
              if have < !expected then begin
                incr under;
                if settled && !under <= 8 then
                  err col ~subject:p.Peer.host
                    "item %S at #%d has %d replica copies, expected %d" (Intern.name interner id)
                    p.Peer.host have !expected
              end
            end));
    if settled && !under > 8 then err col "...and %d more under-replicated items" (!under - 8);
    gauge col "replicated_items" (float_of_int !items);
    gauge col "replica_copies" (float_of_int !copies);
    gauge col "under_replicated" (float_of_int !under);
    gauge col "live_replica_factor"
      (if !items = 0 then 0.0 else float_of_int !copies /. float_of_int !items)
  end;
  status col

let gini sizes =
  let n = Array.length sizes in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy sizes in
    Array.sort Float.compare sorted;
    let total = Array.fold_left ( +. ) 0.0 sorted in
    if total <= 0.0 then 0.0
    else begin
      let weighted = ref 0.0 in
      Array.iteri (fun i x -> weighted := !weighted +. (float_of_int (i + 1) *. x)) sorted;
      let nf = float_of_int n in
      ((2.0 *. !weighted) /. (nf *. total)) -. ((nf +. 1.0) /. nf)
    end
  end

let load_balance ~final:_ w =
  let col = { who = "load_balance"; acc = []; gauges = [] } in
  let sizes = Array.make (World.peer_count w) 0.0 in
  let i = ref 0 in
  World.iter_peers w (fun p ->
      sizes.(!i) <- float_of_int (Data_store.size p.Peer.store);
      incr i);
  let n = Array.length sizes in
  let total = Array.fold_left ( +. ) 0.0 sizes in
  gauge col "items_total" total;
  gauge col "items_per_peer_max" (Array.fold_left Float.max 0.0 sizes);
  gauge col "items_per_peer_mean" (if n = 0 then 0.0 else total /. float_of_int n);
  gauge col "items_gini" (gini sizes);
  status col

(* The checks above by catalogue name, in catalogue order. *)
let checks =
  [
    ("ring_symmetry", ring_symmetry);
    ("finger_tables", finger_tables);
    ("data_placement", data_placement);
    ("replication_factor", replication_factor);
    ("load_balance", load_balance);
  ]

let names = List.map fst checks

(* The reference's statuses of the checks above, online ([final] off) or
   at rest. *)
let run ~final w = List.map (fun (_, check) -> check ~final w) checks
