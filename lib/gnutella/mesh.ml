module Rng = P2p_sim.Rng
module Trace = P2p_sim.Trace

type peer = {
  host : int;
  mutable neighbor_list : peer list;
  store : (string, string) Hashtbl.t;
  mutable alive : bool;
  mutable mark : int; (* visited-epoch for flood deduplication *)
}

type lookup_result = {
  value : string option;
  contacted : int;
  messages : int;
  hops_to_hit : int option;
}

type t = {
  rng : Rng.t;
  links_per_join : int;
  mutable members : peer list;
  mutable count : int;
  mutable epoch : int;
  trace : Trace.t option;
  mutable clock : float;
      (* logical time for span attribution: the mesh is synchronous, so
         each flood level / walk step ticks an internal 1 ms clock *)
}

let create ?trace ~rng ~links_per_join () =
  if links_per_join <= 0 then invalid_arg "Mesh.create: links_per_join";
  { rng; links_per_join; members = []; count = 0; epoch = 0; trace; clock = 0.0 }

(* Span plumbing for the synchronous lookups: one [Custom] op per lookup,
   one 1-ms span per transmission, parented on the op's root. *)
let trace_begin t ~kind label =
  match t.trace with
  | Some tr when Trace.enabled tr ->
    Some (tr, Trace.begin_op tr ~time:t.clock ~kind:(Trace.Custom kind) label)
  | Some _ | None -> None

let trace_hop t tr_op ~phase ~src ~dst ~depth =
  match tr_op with
  | Some (tr, op) ->
    let time = t.clock +. float_of_int depth in
    let s =
      Trace.begin_span tr ~time ~op ~tier:"gnutella" ~phase ~src:src.host
        ~dst:dst.host phase
    in
    Trace.end_span tr ~time:(time +. 1.0) s
  | None -> ()

let trace_finish t tr_op ~depth fmt =
  match tr_op with
  | Some (tr, op) ->
    let stop = t.clock +. float_of_int depth +. 1.0 in
    t.clock <- stop +. 1.0;
    Trace.end_op tr ~time:stop ~op fmt
  | None -> Printf.ikfprintf ignore () fmt

let peer_count t = t.count
let peers t = t.members
let host p = p.host
let neighbors p = p.neighbor_list
let degree p = List.length p.neighbor_list
let alive p = p.alive
let stored_items p = Hashtbl.length p.store

let join t ~host =
  let peer =
    { host; neighbor_list = []; store = Hashtbl.create 8; alive = true; mark = 0 }
  in
  let existing = Array.of_list t.members in
  let n = Array.length existing in
  let wanted = min t.links_per_join n in
  if wanted > 0 then begin
    let targets = Rng.sample_without_replacement t.rng ~k:wanted existing in
    Array.iter
      (fun target ->
        peer.neighbor_list <- target :: peer.neighbor_list;
        target.neighbor_list <- peer :: target.neighbor_list)
      targets
  end;
  t.members <- peer :: t.members;
  t.count <- t.count + 1;
  peer

let unlink peer =
  List.iter
    (fun n -> n.neighbor_list <- List.filter (fun m -> m != peer) n.neighbor_list)
    peer.neighbor_list;
  peer.neighbor_list <- []

let remove t peer =
  t.members <- List.filter (fun p -> p != peer) t.members;
  t.count <- t.count - 1;
  peer.alive <- false

let leave t peer =
  if not peer.alive then invalid_arg "Mesh.leave: peer already gone";
  (match peer.neighbor_list with
   | [] -> ()
   | heir :: _ ->
     Hashtbl.iter (fun k v -> Hashtbl.replace heir.store k v) peer.store);
  Hashtbl.reset peer.store;
  unlink peer;
  remove t peer

let crash t peer =
  if not peer.alive then invalid_arg "Mesh.crash: peer already gone";
  Hashtbl.reset peer.store;
  unlink peer;
  remove t peer

let store _t peer ~key ~value = Hashtbl.replace peer.store key value

let flood_lookup t ~from ~key ~ttl =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  let tr_op = trace_begin t ~kind:"mesh-flood" key in
  let contacted = ref 0 and messages = ref 0 in
  let value = ref None and hops_to_hit = ref None in
  let visit depth peer =
    if peer.mark <> epoch then begin
      peer.mark <- epoch;
      incr contacted;
      if !value = None then
        match Hashtbl.find_opt peer.store key with
        | Some v ->
          value := Some v;
          hops_to_hit := Some depth
        | None -> ()
    end
  in
  visit 0 from;
  (* Breadth-first levels; every transmission over an edge counts as a
     message even if the receiver has already seen the query (the mesh
     duplication the paper's tree s-networks avoid). *)
  let frontier = ref [ from ] in
  let depth = ref 0 in
  while !depth < ttl && !frontier <> [] do
    incr depth;
    let next = ref [] in
    List.iter
      (fun peer ->
        List.iter
          (fun neighbor ->
            if neighbor.alive then begin
              incr messages;
              trace_hop t tr_op ~phase:"flood" ~src:peer ~dst:neighbor
                ~depth:(!depth - 1);
              if neighbor.mark <> epoch then begin
                visit !depth neighbor;
                next := neighbor :: !next
              end
            end)
          peer.neighbor_list)
      !frontier;
    frontier := !next
  done;
  trace_finish t tr_op ~depth:!depth "%d messages, %d contacted" !messages
    !contacted;
  { value = !value; contacted = !contacted; messages = !messages; hops_to_hit = !hops_to_hit }

let random_walk_lookup t ~from ~key ~walkers ~ttl =
  if walkers <= 0 || ttl < 0 then invalid_arg "Mesh.random_walk_lookup";
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  let tr_op = trace_begin t ~kind:"mesh-walk" key in
  let max_depth = ref 0 in
  let contacted = ref 0 and messages = ref 0 in
  let value = ref None and hops_to_hit = ref None in
  let check depth peer =
    if peer.mark <> epoch then begin
      peer.mark <- epoch;
      incr contacted
    end;
    if !value = None then
      match Hashtbl.find_opt peer.store key with
      | Some v ->
        value := Some v;
        if !hops_to_hit = None then hops_to_hit := Some depth
      | None -> ()
  in
  check 0 from;
  for _ = 1 to walkers do
    let current = ref from and depth = ref 0 in
    let stuck = ref false in
    while !depth < ttl && !value = None && not !stuck do
      let live = List.filter (fun p -> p.alive) !current.neighbor_list in
      match live with
      | [] -> stuck := true
      | _ ->
        let next = Rng.pick_list t.rng live in
        incr messages;
        trace_hop t tr_op ~phase:"walk" ~src:!current ~dst:next ~depth:!depth;
        incr depth;
        if !depth > !max_depth then max_depth := !depth;
        check !depth next;
        current := next
    done
  done;
  trace_finish t tr_op ~depth:!max_depth "%d messages, %d contacted" !messages
    !contacted;
  { value = !value; contacted = !contacted; messages = !messages; hops_to_hit = !hops_to_hit }

let is_connected t =
  match t.members with
  | [] -> true
  | first :: _ ->
    t.epoch <- t.epoch + 1;
    let epoch = t.epoch in
    let seen = ref 0 in
    let rec dfs p =
      if p.mark <> epoch then begin
        p.mark <- epoch;
        incr seen;
        List.iter (fun n -> if n.alive then dfs n) p.neighbor_list
      end
    in
    dfs first;
    !seen = t.count
