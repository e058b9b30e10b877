type edge = { u : int; v : int; latency : float }

type t = {
  adjacency : (int * float) list array;
  mutable edge_count : int;
  transit : Bytes.t; (* '\001' at a transit node *)
}

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { adjacency = Array.make n []; edge_count = 0; transit = Bytes.make n '\000' }

let node_count t = Array.length t.adjacency

let edge_count t = t.edge_count

let check_node t u =
  if u < 0 || u >= node_count t then invalid_arg "Graph: node out of range"

let has_edge t u v =
  check_node t u;
  check_node t v;
  List.mem_assoc v t.adjacency.(u)

let add_edge t u v ~latency =
  check_node t u;
  check_node t v;
  if u = v then invalid_arg "Graph.add_edge: self loop";
  if latency <= 0.0 then invalid_arg "Graph.add_edge: non-positive latency";
  if has_edge t u v then invalid_arg "Graph.add_edge: duplicate edge";
  t.adjacency.(u) <- (v, latency) :: t.adjacency.(u);
  t.adjacency.(v) <- (u, latency) :: t.adjacency.(v);
  t.edge_count <- t.edge_count + 1

let mark_transit t u =
  check_node t u;
  Bytes.set t.transit u '\001'

let is_transit t u =
  check_node t u;
  Bytes.get t.transit u = '\001'

let latency t u v =
  check_node t u;
  check_node t v;
  List.assoc v t.adjacency.(u)

let neighbors t u =
  check_node t u;
  t.adjacency.(u)

let degree t u = List.length (neighbors t u)

let edges t =
  let acc = ref [] in
  for u = 0 to node_count t - 1 do
    List.iter (fun (v, latency) -> if u < v then acc := { u; v; latency } :: !acc) t.adjacency.(u)
  done;
  !acc

let iter_neighbors t u f =
  check_node t u;
  List.iter (fun (v, latency) -> f v latency) t.adjacency.(u)

let is_connected t =
  let n = node_count t in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let stack = ref [ 0 ] in
    seen.(0) <- true;
    let visited = ref 1 in
    let rec loop () =
      match !stack with
      | [] -> ()
      | u :: rest ->
        stack := rest;
        iter_neighbors t u (fun v _ ->
            if not seen.(v) then begin
              seen.(v) <- true;
              incr visited;
              stack := v :: !stack
            end);
        loop ()
    in
    loop ();
    !visited = n
  end
