module Rng = P2p_sim.Rng

type params = {
  transit_domains : int;
  transit_nodes : int;
  stub_domains_per_node : int;
  stub_nodes : int;
  extra_transit_edges : int;
  extra_stub_edges : int;
  transit_transit_latency : float * float;
  intra_transit_latency : float * float;
  transit_stub_latency : float * float;
  intra_stub_latency : float * float;
}

let default_params =
  {
    transit_domains = 4;
    transit_nodes = 5;
    stub_domains_per_node = 7;
    stub_nodes = 7;
    extra_transit_edges = 2;
    extra_stub_edges = 2;
    transit_transit_latency = (30.0, 60.0);
    intra_transit_latency = (10.0, 25.0);
    transit_stub_latency = (5.0, 15.0);
    intra_stub_latency = (1.0, 4.0);
  }

let node_count p =
  let transit = p.transit_domains * p.transit_nodes in
  transit + (transit * p.stub_domains_per_node * p.stub_nodes)

type node_class = Transit of int | Stub of int

type t = { graph : Graph.t; classes : node_class array }

let sample_latency rng (lo, hi) = Rng.float_in_range rng ~lo ~hi

(* Connect [nodes] into a random connected subgraph: a random spanning
   chain over a shuffled order, plus [extra] random chords. *)
let connect_domain rng graph nodes ~extra ~latency_range =
  let nodes = Array.copy nodes in
  Rng.shuffle rng nodes;
  let n = Array.length nodes in
  for i = 1 to n - 1 do
    Graph.add_edge graph nodes.(i - 1) nodes.(i)
      ~latency:(sample_latency rng latency_range)
  done;
  let attempts = ref 0 in
  let added = ref 0 in
  (* Chords may collide with existing edges; bound the retries. *)
  while !added < extra && !attempts < extra * 10 && n >= 3 do
    incr attempts;
    let u = Rng.pick rng nodes and v = Rng.pick rng nodes in
    if u <> v && not (Graph.has_edge graph u v) then begin
      Graph.add_edge graph u v ~latency:(sample_latency rng latency_range);
      incr added
    end
  done

let validate p =
  if
    p.transit_domains <= 0 || p.transit_nodes <= 0
    || p.stub_domains_per_node < 0 || p.stub_nodes <= 0
  then invalid_arg "Transit_stub.generate: non-positive size parameter"

let generate ~rng p =
  validate p;
  let total = node_count p in
  let graph = Graph.create total in
  let classes = Array.make total (Transit 0) in
  let transit_total = p.transit_domains * p.transit_nodes in
  (* Nodes [0, transit_total) are transit; the rest are stub, laid out
     domain-major so each transit node's stubs are contiguous. *)
  let domains =
    Array.init p.transit_domains (fun d ->
        Array.init p.transit_nodes (fun i -> (d * p.transit_nodes) + i))
  in
  Array.iteri
    (fun d nodes ->
      Array.iter
        (fun u ->
          classes.(u) <- Transit d;
          Graph.mark_transit graph u)
        nodes;
      connect_domain rng graph nodes ~extra:p.extra_transit_edges
        ~latency_range:p.intra_transit_latency)
    domains;
  (* Inter-domain backbone: chain the domains, plus one extra random
     domain-to-domain link per domain for redundancy. *)
  let random_node_of_domain d = Rng.pick rng domains.(d) in
  for d = 1 to p.transit_domains - 1 do
    let u = random_node_of_domain (d - 1) and v = random_node_of_domain d in
    if not (Graph.has_edge graph u v) then
      Graph.add_edge graph u v ~latency:(sample_latency rng p.transit_transit_latency)
  done;
  if p.transit_domains >= 3 then
    for d = 0 to p.transit_domains - 1 do
      let d' = Rng.int rng p.transit_domains in
      if d <> d' then begin
        let u = random_node_of_domain d and v = random_node_of_domain d' in
        if u <> v && not (Graph.has_edge graph u v) then
          Graph.add_edge graph u v ~latency:(sample_latency rng p.transit_transit_latency)
      end
    done;
  (* Stub domains. *)
  let next = ref transit_total in
  for transit_node = 0 to transit_total - 1 do
    for _domain = 1 to p.stub_domains_per_node do
      let members = Array.init p.stub_nodes (fun i -> !next + i) in
      next := !next + p.stub_nodes;
      Array.iter (fun u -> classes.(u) <- Stub transit_node) members;
      connect_domain rng graph members ~extra:p.extra_stub_edges
        ~latency_range:p.intra_stub_latency;
      (* Access link: a random member attaches to the transit node. *)
      let gateway = Rng.pick rng members in
      Graph.add_edge graph gateway transit_node
        ~latency:(sample_latency rng p.transit_stub_latency)
    done
  done;
  { graph; classes }

let is_transit t u = match t.classes.(u) with Transit _ -> true | Stub _ -> false

let nodes_where t pred =
  let acc = ref [] in
  for u = Array.length t.classes - 1 downto 0 do
    if pred u then acc := u :: !acc
  done;
  !acc

let transit_nodes t = nodes_where t (is_transit t)
let stub_nodes t = nodes_where t (fun u -> not (is_transit t u))
