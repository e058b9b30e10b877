open P2p_hashspace
module Trace = P2p_sim.Trace

type node = {
  host : int;
  p_id : int;
  mutable successor : node;
  mutable predecessor : node option;
  mutable successor_list : node list;
  fingers : node option array;
  store : (string, string) Hashtbl.t;
  mutable alive : bool;
}

type t = {
  by_id : (int, node) Hashtbl.t;
  mutable join_order : node list; (* oldest last *)
  mutable sorted : node array;    (* live nodes by p_id; rebuilt lazily *)
  mutable dirty : bool;
  mutable fingers_dirty : bool;
      (* set on join/leave; fingers and successor lists refresh lazily,
         modelling the background fix_fingers pass.  Crashes deliberately
         do NOT set it: stale fingers until [stabilize] are the point. *)
  successor_list_length : int;
  trace : Trace.t option;
  mutable clock : float;
      (* logical time for span attribution: the overlay itself is
         synchronous, so hops tick an internal clock at 1 ms each *)
}

let create ?trace ?(successor_list_length = 8) () =
  if successor_list_length < 1 then
    invalid_arg "Ring.create: successor_list_length must be >= 1";
  {
    by_id = Hashtbl.create 64;
    join_order = [];
    sorted = [||];
    dirty = false;
    fingers_dirty = false;
    successor_list_length;
    trace;
    clock = 0.0;
  }

(* Replay a routing path into the trace as one [Custom] op: a "ring_hop"
   span per edge, 1 logical ms each, so the baseline's routing shows up
   in the same span tooling as the hybrid system's. *)
let trace_path t ~kind ~label path =
  match t.trace with
  | Some tr when Trace.enabled tr ->
    let start = t.clock in
    let op = Trace.begin_op tr ~time:start ~kind:(Trace.Custom kind) label in
    let time = ref start in
    let rec hops = function
      | a :: (b :: _ as rest) ->
        let s =
          Trace.begin_span tr ~time:!time ~op ~tier:"chord" ~phase:"ring_hop"
            ~src:a.host ~dst:b.host "ring_hop"
        in
        time := !time +. 1.0;
        Trace.end_span tr ~time:!time s;
        hops rest
      | [] | [ _ ] -> ()
    in
    hops path;
    Trace.end_op tr ~time:!time ~op
      "%d hops" (Stdlib.max 0 (List.length path - 1));
    t.clock <- !time +. 1.0
  | Some _ | None -> ()

let node_count t = Hashtbl.length t.by_id

let nodes t = Hashtbl.fold (fun _ n acc -> n :: acc) t.by_id []

let host n = n.host
let p_id n = n.p_id
let successor n = n.successor
let predecessor n = n.predecessor
let alive n = n.alive
let fingers n = n.fingers
let stored_items n = Hashtbl.length n.store

let sorted_live t =
  if t.dirty then begin
    let arr = Array.of_list (nodes t) in
    Array.sort (fun a b -> compare a.p_id b.p_id) arr;
    t.sorted <- arr;
    t.dirty <- false
  end;
  t.sorted

(* Oracle: the live owner of [id] — first live node clockwise at or after
   [id].  Used only by maintenance (finger refresh, successor repair), which
   models the outcome of the background stabilization protocol. *)
let oracle_successor t id =
  let arr = sorted_live t in
  let n = Array.length arr in
  if n = 0 then None
  else begin
    (* Binary search for the first p_id >= id. *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if arr.(mid).p_id >= id then hi := mid else lo := mid + 1
    done;
    Some (if !lo = n then arr.(0) else arr.(!lo))
  end

let refresh_fingers t node =
  for k = 0 to Id_space.bits - 1 do
    node.fingers.(k) <- oracle_successor t (Id_space.finger_start ~base:node.p_id k)
  done

let refresh_successor_list t node =
  let rec collect acc current k =
    if k = 0 then List.rev acc
    else collect (current.successor :: acc) current.successor (k - 1)
  in
  node.successor_list <- collect [] node t.successor_list_length

(* First live entry of the successor list, falling back to the node itself. *)
let first_live_successor node =
  let rec scan = function
    | [] -> node
    | s :: rest -> if s.alive then s else scan rest
  in
  if node.successor.alive then node.successor else scan node.successor_list

let ensure_fingers t =
  if t.fingers_dirty then begin
    t.fingers_dirty <- false;
    let live = nodes t in
    List.iter (refresh_fingers t) live;
    List.iter (refresh_successor_list t) live
  end

let closest_preceding_finger node id =
  let best = ref None in
  for k = Id_space.bits - 1 downto 0 do
    if !best = None then
      match node.fingers.(k) with
      | Some f when f.alive && f != node && Id_space.between f.p_id ~left:node.p_id ~right:id ->
        best := Some f
      | Some _ | None -> ()
  done;
  !best

let find_successor t ~from id =
  ensure_fingers t;
  let rec walk current acc steps =
    if steps > 4 * Id_space.bits then
      (* Stale pointers can in principle loop; bail out to the linear walk. *)
      let next = first_live_successor current in
      if Id_space.between_incl_right id ~left:current.p_id ~right:next.p_id then
        (next, List.rev (next :: acc))
      else walk_linear next (next :: acc)
    else begin
      let succ = first_live_successor current in
      if Id_space.between_incl_right id ~left:current.p_id ~right:succ.p_id then
        (succ, List.rev (succ :: acc))
      else
        match closest_preceding_finger current id with
        | Some f -> walk f (f :: acc) (steps + 1)
        | None -> walk succ (succ :: acc) (steps + 1)
    end
  and walk_linear current acc =
    let next = first_live_successor current in
    if Id_space.between_incl_right id ~left:current.p_id ~right:next.p_id then
      (next, List.rev (next :: acc))
    else walk_linear next (next :: acc)
  in
  walk from [ from ] 0

let default_introducer t =
  match List.rev t.join_order with
  | [] -> None
  | oldest :: _ -> Some oldest

(* Move every key owned by [new_node] (i.e. hashing into
   (predecessor(new), new]) from [source] to [new_node]. *)
let transfer_load ~source ~new_node =
  let left = match new_node.predecessor with Some p -> p.p_id | None -> new_node.p_id in
  let moved =
    Hashtbl.fold
      (fun key value acc ->
        let d_id = Key_hash.of_string key in
        if Id_space.between_incl_right d_id ~left ~right:new_node.p_id then
          (key, value) :: acc
        else acc)
      source.store []
  in
  List.iter
    (fun (key, value) ->
      Hashtbl.remove source.store key;
      Hashtbl.replace new_node.store key value)
    moved

let join ?introducer t ~host ~p_id =
  if not (Id_space.valid p_id) then invalid_arg "Ring.join: invalid p_id";
  if Hashtbl.mem t.by_id p_id then invalid_arg "Ring.join: duplicate p_id";
  let rec node =
    {
      host;
      p_id;
      successor = node;
      predecessor = None;
      successor_list = [];
      fingers = Array.make Id_space.bits None;
      store = Hashtbl.create 16;
      alive = true;
    }
  in
  let path =
    match (introducer, default_introducer t) with
    | (Some intro, _ | None, Some intro) ->
      let owner, path = find_successor t ~from:intro p_id in
      (* Insert between owner's predecessor and owner. *)
      let pred = match owner.predecessor with Some p -> p | None -> owner in
      node.successor <- owner;
      node.predecessor <- Some pred;
      pred.successor <- node;
      owner.predecessor <- Some node;
      transfer_load ~source:owner ~new_node:node;
      path
    | None, None ->
      node.successor <- node;
      node.predecessor <- Some node;
      []
  in
  Hashtbl.replace t.by_id p_id node;
  t.join_order <- node :: t.join_order;
  t.dirty <- true;
  t.fingers_dirty <- true;
  refresh_fingers t node;
  refresh_successor_list t node;
  trace_path t ~kind:"chord-join" ~label:(Printf.sprintf "#%d" host) path;
  (node, path)

let remove_from_membership t node =
  Hashtbl.remove t.by_id node.p_id;
  t.join_order <- List.filter (fun n -> n != node) t.join_order;
  t.dirty <- true

let remove_gracefully t node =
  remove_from_membership t node;
  t.fingers_dirty <- true

let leave t node =
  if not node.alive then invalid_arg "Ring.leave: node already left";
  node.alive <- false;
  remove_gracefully t node;
  if node.successor != node then begin
    let succ = node.successor in
    let pred = match node.predecessor with Some p -> p | None -> succ in
    (* Dump all data to the successor. *)
    Hashtbl.iter (fun key value -> Hashtbl.replace succ.store key value) node.store;
    Hashtbl.reset node.store;
    pred.successor <- succ;
    succ.predecessor <- Some (if pred.alive then pred else succ)
  end

let crash t node =
  if not node.alive then invalid_arg "Ring.crash: node already gone";
  node.alive <- false;
  Hashtbl.reset node.store;
  remove_from_membership t node

let store t ~from ~key ~value =
  let d_id = Key_hash.of_string key in
  let owner, path = find_successor t ~from d_id in
  Hashtbl.replace owner.store key value;
  trace_path t ~kind:"chord-store" ~label:key path;
  path

let lookup t ~from ~key =
  let d_id = Key_hash.of_string key in
  let owner, path = find_successor t ~from d_id in
  trace_path t ~kind:"chord-lookup" ~label:key path;
  (Hashtbl.find_opt owner.store key, path)

let stabilize t =
  t.fingers_dirty <- true;
  let live = nodes t in
  (* Successor repair: adopt the oracle's next live node (models successor
     lists resolving after crashes), then rectify predecessors. *)
  List.iter
    (fun n ->
      if not n.successor.alive || n.successor == n then begin
        match oracle_successor t (Id_space.add n.p_id 1) with
        | Some s -> n.successor <- s
        | None -> n.successor <- n
      end)
    live;
  List.iter
    (fun n ->
      let s = n.successor in
      match s.predecessor with
      | Some p when p.alive && p != s && not (Id_space.between n.p_id ~left:p.p_id ~right:s.p_id) -> ()
      | Some _ | None -> s.predecessor <- Some n)
    live;
  List.iter
    (fun n ->
      (match n.predecessor with
       | Some p when not p.alive ->
         n.predecessor <- (match oracle_successor t (Id_space.add n.p_id 1) with
                           | Some _ -> n.predecessor
                           | None -> None)
       | Some _ | None -> ());
      refresh_fingers t n;
      refresh_successor_list t n)
    live;
  (* Second predecessor pass now that successors are sane. *)
  List.iter
    (fun n ->
      match n.predecessor with
      | Some p when p.alive && p.successor == n -> ()
      | Some _ | None ->
        (* Find the live node whose successor is n. *)
        let pred = List.find_opt (fun m -> m.successor == n) live in
        (match pred with Some p -> n.predecessor <- Some p | None -> ())
    )
    live

let check_invariants t =
  ensure_fingers t;
  let arr = sorted_live t in
  let n = Array.length arr in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  if n = 0 then Ok ()
  else begin
    let rec check i =
      if i >= n then Ok ()
      else begin
        let node = arr.(i) in
        let expected_succ = arr.((i + 1) mod n) in
        let expected_pred = arr.((i + n - 1) mod n) in
        let* () =
          if node.successor == expected_succ || n = 1 then Ok ()
          else
            Error
              (Printf.sprintf "node %#x: successor %#x, expected %#x" node.p_id
                 node.successor.p_id expected_succ.p_id)
        in
        let* () =
          match node.predecessor with
          | Some p when p == expected_pred || n = 1 -> Ok ()
          | Some p ->
            Error
              (Printf.sprintf "node %#x: predecessor %#x, expected %#x" node.p_id
                 p.p_id expected_pred.p_id)
          | None -> Error (Printf.sprintf "node %#x: no predecessor" node.p_id)
        in
        let finger_err = ref None in
        for k = 0 to Id_space.bits - 1 do
          if !finger_err = None then begin
            let start = Id_space.finger_start ~base:node.p_id k in
            let expected = oracle_successor t start in
            match (node.fingers.(k), expected) with
            | Some f, Some e when f == e -> ()
            | _, None -> ()
            | Some f, Some e ->
              finger_err :=
                Some
                  (Printf.sprintf "node %#x: finger %d is %#x, expected %#x"
                     node.p_id k f.p_id e.p_id)
            | None, Some e ->
              finger_err :=
                Some
                  (Printf.sprintf "node %#x: finger %d empty, expected %#x"
                     node.p_id k e.p_id)
          end
        done;
        let* () = match !finger_err with Some e -> Error e | None -> Ok () in
        check (i + 1)
      end
    in
    check 0
  end

let successor_list_length t = t.successor_list_length
