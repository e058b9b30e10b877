(* Tests for P2p_topology: Graph, Transit_stub, Routing, Link_stress,
   Landmark. *)

module Rng = P2p_sim.Rng
module Graph = P2p_topology.Graph
module Transit_stub = P2p_topology.Transit_stub
module Routing = P2p_topology.Routing
module Link_stress = P2p_topology.Link_stress
module Landmark = P2p_topology.Landmark

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- Graph --- *)

let test_graph_basic () =
  let g = Graph.create 4 in
  checki "nodes" 4 (Graph.node_count g);
  checki "no edges" 0 (Graph.edge_count g);
  Graph.add_edge g 0 1 ~latency:2.0;
  Graph.add_edge g 1 2 ~latency:3.0;
  checki "edges" 2 (Graph.edge_count g);
  checkb "has 0-1" true (Graph.has_edge g 0 1);
  checkb "symmetric" true (Graph.has_edge g 1 0);
  checkb "absent" false (Graph.has_edge g 0 2);
  checkf "latency" 2.0 (Graph.latency g 0 1);
  checkf "latency symmetric" 2.0 (Graph.latency g 1 0);
  checki "degree" 2 (Graph.degree g 1)

let test_graph_rejects () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 ~latency:1.0;
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self loop")
    (fun () -> Graph.add_edge g 1 1 ~latency:1.0);
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.add_edge: duplicate edge")
    (fun () -> Graph.add_edge g 1 0 ~latency:1.0);
  Alcotest.check_raises "bad latency"
    (Invalid_argument "Graph.add_edge: non-positive latency") (fun () ->
      Graph.add_edge g 1 2 ~latency:0.0);
  Alcotest.check_raises "out of range" (Invalid_argument "Graph: node out of range")
    (fun () -> Graph.add_edge g 0 3 ~latency:1.0)

let test_graph_edges_listing () =
  let g = Graph.create 3 in
  Graph.add_edge g 2 0 ~latency:1.5;
  (match Graph.edges g with
   | [ { Graph.u; v; latency } ] ->
     checki "u < v" 0 u;
     checki "v" 2 v;
     checkf "latency" 1.5 latency
   | _ -> Alcotest.fail "expected exactly one edge")

let test_graph_connectivity () =
  let g = Graph.create 4 in
  checkb "disconnected" false (Graph.is_connected g);
  Graph.add_edge g 0 1 ~latency:1.0;
  Graph.add_edge g 1 2 ~latency:1.0;
  checkb "still disconnected" false (Graph.is_connected g);
  Graph.add_edge g 2 3 ~latency:1.0;
  checkb "connected" true (Graph.is_connected g);
  checkb "empty graph connected" true (Graph.is_connected (Graph.create 0))

(* --- Transit_stub --- *)

let small_params =
  {
    Transit_stub.default_params with
    Transit_stub.transit_domains = 2;
    transit_nodes = 3;
    stub_domains_per_node = 2;
    stub_nodes = 4;
  }

let test_ts_node_count () =
  checki "formula" (6 + (6 * 2 * 4)) (Transit_stub.node_count small_params);
  checki "default params give 1000" 1000 (Transit_stub.node_count Transit_stub.default_params)

let test_ts_connected () =
  let rng = Rng.create 1 in
  let t = Transit_stub.generate ~rng small_params in
  checkb "connected" true (Graph.is_connected t.Transit_stub.graph);
  checki "node count" (Transit_stub.node_count small_params)
    (Graph.node_count t.Transit_stub.graph)

let test_ts_classes () =
  let rng = Rng.create 2 in
  let t = Transit_stub.generate ~rng small_params in
  let transit = Transit_stub.transit_nodes t and stub = Transit_stub.stub_nodes t in
  checki "transit count" 6 (List.length transit);
  checki "stub count" 48 (List.length stub);
  (* stub nodes reference a valid transit node *)
  List.iter
    (fun u ->
      match t.Transit_stub.classes.(u) with
      | Transit_stub.Stub owner -> checkb "owner is transit" true (owner >= 0 && owner < 6)
      | Transit_stub.Transit _ -> Alcotest.fail "stub classified as transit")
    stub

let test_ts_deterministic () =
  let t1 = Transit_stub.generate ~rng:(Rng.create 7) small_params in
  let t2 = Transit_stub.generate ~rng:(Rng.create 7) small_params in
  checki "same edge count" (Graph.edge_count t1.Transit_stub.graph)
    (Graph.edge_count t2.Transit_stub.graph);
  let e1 = Graph.edges t1.Transit_stub.graph and e2 = Graph.edges t2.Transit_stub.graph in
  checkb "identical topologies" true
    (List.for_all2 (fun a b -> a.Graph.u = b.Graph.u && a.Graph.v = b.Graph.v) e1 e2)

let test_ts_latency_classes () =
  let rng = Rng.create 3 in
  let t = Transit_stub.generate ~rng Transit_stub.default_params in
  let p = Transit_stub.default_params in
  List.iter
    (fun { Graph.u; v; latency } ->
      let lo, hi =
        match (t.Transit_stub.classes.(u), t.Transit_stub.classes.(v)) with
        | Transit_stub.Transit a, Transit_stub.Transit b when a = b ->
          p.Transit_stub.intra_transit_latency
        | Transit_stub.Transit _, Transit_stub.Transit _ ->
          p.Transit_stub.transit_transit_latency
        | Transit_stub.Stub _, Transit_stub.Stub _ -> p.Transit_stub.intra_stub_latency
        | Transit_stub.Transit _, Transit_stub.Stub _
        | Transit_stub.Stub _, Transit_stub.Transit _ ->
          p.Transit_stub.transit_stub_latency
      in
      checkb "latency in class range" true (latency >= lo && latency <= hi))
    (Graph.edges t.Transit_stub.graph)

let test_ts_rejects () =
  Alcotest.check_raises "bad params"
    (Invalid_argument "Transit_stub.generate: non-positive size parameter") (fun () ->
      ignore
        (Transit_stub.generate ~rng:(Rng.create 1)
           { small_params with Transit_stub.transit_nodes = 0 }
          : Transit_stub.t))

(* --- Routing --- *)

let line_graph n =
  let g = Graph.create n in
  for i = 0 to n - 2 do
    Graph.add_edge g i (i + 1) ~latency:1.0
  done;
  g

let test_routing_line () =
  let r = Routing.create (line_graph 5) in
  checkf "0 to 4" 4.0 (Routing.distance r 0 4);
  checkf "self" 0.0 (Routing.distance r 2 2);
  Alcotest.check (Alcotest.list Alcotest.int) "path" [ 0; 1; 2; 3; 4 ] (Routing.path r 0 4);
  checki "hop count" 4 (Routing.hop_count r 0 4);
  checki "self hops" 0 (Routing.hop_count r 3 3)

let test_routing_shortcut () =
  let g = line_graph 5 in
  Graph.add_edge g 0 4 ~latency:1.5;
  let r = Routing.create g in
  checkf "uses shortcut" 1.5 (Routing.distance r 0 4);
  Alcotest.check (Alcotest.list Alcotest.int) "short path" [ 0; 4 ] (Routing.path r 0 4)

let test_routing_unreachable () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 ~latency:1.0;
  let r = Routing.create g in
  checkb "infinite" true (Routing.distance r 0 2 = infinity);
  Alcotest.check_raises "no path" Not_found (fun () ->
      ignore (Routing.path r 0 2 : int list))

let test_routing_symmetric () =
  let rng = Rng.create 4 in
  let t = Transit_stub.generate ~rng small_params in
  let r = Routing.create t.Transit_stub.graph in
  for _ = 1 to 50 do
    let u = Rng.int rng 54 and v = Rng.int rng 54 in
    checkf "d(u,v) = d(v,u)"
      (Routing.distance r u v) (Routing.distance r v u)
  done

let test_routing_triangle_inequality () =
  let rng = Rng.create 5 in
  let t = Transit_stub.generate ~rng small_params in
  let r = Routing.create t.Transit_stub.graph in
  for _ = 1 to 100 do
    let a = Rng.int rng 54 and b = Rng.int rng 54 and c = Rng.int rng 54 in
    checkb "triangle" true
      (Routing.distance r a c <= Routing.distance r a b +. Routing.distance r b c +. 1e-9)
  done

(* --- link-state routing --- *)

(* A router's three queries, so one check serves [Routing] and the
   reference alike. *)
type queries = {
  distance : int -> int -> float;
  path : int -> int -> int list;
  hop_count : int -> int -> int;
}

let of_routing r =
  { distance = Routing.distance r; path = Routing.path r; hop_count = Routing.hop_count r }

let of_reference d =
  {
    distance = Dijkstra_ref.distance d;
    path = Dijkstra_ref.path d;
    hop_count = Dijkstra_ref.hop_count d;
  }

(* When [u ~ v], the router's reported path must be real (edges exist),
   cost exactly the reported distance, and agree with [hop_count].  This
   is checked per router, not across routers: equal-cost ties may give
   the two different — equally shortest — paths. *)
let check_path_valid g r name u v =
  if r.distance u v < infinity then begin
    let p = r.path u v in
    (match p with
     | first :: _ -> checki (name ^ ": path starts at u") u first
     | [] -> Alcotest.fail (name ^ ": empty path"));
    checki (name ^ ": path ends at v") v (List.nth p (List.length p - 1));
    let rec cost = function
      | a :: (b :: _ as rest) ->
        checkb (name ^ ": edge exists") true (Graph.has_edge g a b);
        Graph.latency g a b +. cost rest
      | _ -> 0.0
    in
    Alcotest.check (Alcotest.float 1e-6) (name ^ ": path cost = distance") (r.distance u v)
      (cost p);
    checki (name ^ ": hop_count = |path| - 1") (List.length p - 1) (r.hop_count u v)
  end

(* The star [Hybrid.create_star] builds: hub [n - 1] is the only transit
   node, so every other host is a one-node stub domain. *)
let star_routing n =
  let g = Graph.create n in
  for host = 0 to n - 2 do
    Graph.add_edge g host (n - 1) ~latency:1.5
  done;
  Graph.mark_transit g (n - 1);
  (g, Routing.create g)

(* Property: over random transit-stub graphs and a star, the link-state
   router answers like the per-source Dijkstra reference on every pair —
   distances to float tolerance (hierarchical composition sums in a
   different order), hop counts exactly (random latencies leave no
   equal-cost ties) — and both routers report self-consistent paths. *)
let test_link_state_matches_dijkstra () =
  List.iter
    (fun (g, ls) ->
      let dij = Dijkstra_ref.create g in
      let n = Graph.node_count g in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          Alcotest.check (Alcotest.float 1e-6) "distance agrees"
            (Dijkstra_ref.distance dij u v)
            (Routing.distance ls u v);
          checki "hop count agrees" (Dijkstra_ref.hop_count dij u v) (Routing.hop_count ls u v);
          check_path_valid g (of_reference dij) "dijkstra" u v;
          check_path_valid g (of_routing ls) "link_state" u v
        done
      done)
    (star_routing 9
    :: List.map
         (fun seed ->
           let t = Transit_stub.generate ~rng:(Rng.create seed) small_params in
           (t.Transit_stub.graph, Routing.create t.Transit_stub.graph))
         [ 11; 12; 13 ])

(* --- the flat router: no transit marks --- *)

(* An unmarked graph routes flat: each connected component is one stub
   domain with no access link.  The degenerate shapes: no node, one
   node, and two components, which reach each other not at all. *)
let test_flat_edge_cases () =
  let empty = Routing.create (Graph.create 0) in
  checki "empty graph: no solve" 0 (Routing.solves empty);
  let one = Routing.create (Graph.create 1) in
  checkf "single node: self distance" 0.0 (Routing.distance one 0 0);
  Alcotest.check (Alcotest.list Alcotest.int) "single node: path" [ 0 ] (Routing.path one 0 0);
  checki "single node: hops" 0 (Routing.hop_count one 0 0);
  checki "single node: next hop" 0 (Routing.next_hop one 0 0);
  let g = Graph.create 5 in
  Graph.add_edge g 0 1 ~latency:1.0;
  Graph.add_edge g 1 2 ~latency:2.0;
  Graph.add_edge g 3 4 ~latency:4.0;
  let r = Routing.create g in
  checkf "within a component" 3.0 (Routing.distance r 0 2);
  checkf "within the other" 4.0 (Routing.distance r 4 3);
  List.iter
    (fun (u, v) ->
      let pair = Printf.sprintf "%d -> %d" u v in
      checkb (pair ^ ": infinite") true (Routing.distance r u v = infinity);
      Alcotest.check_raises (pair ^ ": no path") Not_found (fun () ->
          ignore (Routing.path r u v : int list));
      Alcotest.check_raises (pair ^ ": no hop count") Not_found (fun () ->
          ignore (Routing.hop_count r u v : int));
      Alcotest.check_raises (pair ^ ": no next hop") Not_found (fun () ->
          ignore (Routing.next_hop r u v : int)))
    [ (0, 3); (4, 2); (1, 4) ]

(* A random unmarked graph of 1-40 nodes, possibly disconnected: each
   node draws up to two edges to random others, at a latency drawn from
   [1, 10) ms, or 1 ms throughout when [unit]. *)
let random_flat_graph ~seed ~unit =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 40 in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for _ = 1 to Rng.int rng 3 do
      let v = Rng.int rng n in
      let latency = if unit then 1.0 else Rng.float_in_range rng ~lo:1.0 ~hi:10.0 in
      if u <> v && not (Graph.has_edge g u v) then Graph.add_edge g u v ~latency
    done
  done;
  g

(* Property: on random unmarked graphs the flat router answers every
   pair like the reference.  With random latencies (no ties): the
   distance bit for bit (both fold the latencies from the source), the
   hop count, the first hop and the path.  With unit latencies, where
   ties leave several shortest paths: the distance and the hop count. *)
let prop_flat_matches_reference =
  QCheck.Test.make ~name:"flat router = Dijkstra reference" ~count:40
    QCheck.(pair (int_bound 10_000) bool)
    (fun (seed, unit) ->
      let g = random_flat_graph ~seed ~unit in
      let r = Routing.create g and dij = Dijkstra_ref.create g in
      let n = Graph.node_count g in
      let agree = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let d = Dijkstra_ref.distance dij u v in
          let same_route () =
            Routing.hop_count r u v = Dijkstra_ref.hop_count dij u v
            && (unit
               || Routing.next_hop r u v = Dijkstra_ref.next_hop dij u v
                  && Routing.path r u v = Dijkstra_ref.path dij u v)
          in
          agree :=
            !agree
            && Int64.bits_of_float (Routing.distance r u v) = Int64.bits_of_float d
            && (d = infinity || same_route ())
        done
      done;
      !agree)

(* Hand-built hierarchy where every figure is known exactly: transit
   backbone 0 -- 1, a 3-node stub domain {2,3,4} on node 0, a 2-node
   stub domain {5,6} on node 1, and node 7 an isolated stub domain with
   no access link. *)
let manual_hierarchy () =
  let g = Graph.create 8 in
  Graph.add_edge g 0 1 ~latency:10.0;
  Graph.add_edge g 2 3 ~latency:1.0;
  Graph.add_edge g 3 4 ~latency:1.0;
  Graph.add_edge g 0 2 ~latency:2.0;
  Graph.add_edge g 5 6 ~latency:1.0;
  Graph.add_edge g 1 5 ~latency:3.0;
  Graph.mark_transit g 0;
  Graph.mark_transit g 1;
  Routing.create g

let test_link_state_manual () =
  let r = manual_hierarchy () in
  checkf "intra-domain" 2.0 (Routing.distance r 2 4);
  checkf "stub to transit" 13.0 (Routing.distance r 3 1);
  checkf "transit to stub" 4.0 (Routing.distance r 1 6);
  checkf "cross-domain" 18.0 (Routing.distance r 4 6);
  checki "cross-domain hops" 6 (Routing.hop_count r 4 6);
  Alcotest.check (Alcotest.list Alcotest.int) "cross-domain path"
    [ 4; 3; 2; 0; 1; 5; 6 ] (Routing.path r 4 6);
  (* the isolated domain: reachable from itself, nothing else *)
  checkf "isolated self" 0.0 (Routing.distance r 7 7);
  checkb "isolated unreachable" true (Routing.distance r 7 4 = infinity);
  checkb "unreachable from transit" true (Routing.distance r 0 7 = infinity);
  Alcotest.check_raises "no path" Not_found (fun () ->
      ignore (Routing.path r 4 7 : int list));
  Alcotest.check_raises "no hop count" Not_found (fun () ->
      ignore (Routing.hop_count r 4 7 : int))

let test_link_state_rejects_multi_access () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1 ~latency:1.0;
  Graph.add_edge g 2 3 ~latency:1.0;
  Graph.add_edge g 0 2 ~latency:1.0;
  Graph.add_edge g 1 3 ~latency:1.0;
  Graph.mark_transit g 0;
  Graph.mark_transit g 1;
  (* stub domain {2,3} touches the backbone twice: not transit-stub *)
  checkb "rejected" true
    (match Routing.create g with
     | exception Invalid_argument _ -> true
     | (_ : Routing.t) -> false)

(* The decomposition [Routing.create] was first built with: stub
   domains found by a search over a list stack, each domain's members
   sorted, then every member's edges scanned for its access link.  Kept
   here as the reference the flat construction is held to. *)
let reference_decomposition g ~is_transit =
  let n = Graph.node_count g in
  let transit = Array.init n is_transit in
  let domain_of = Array.make n (-1) in
  let members_rev = ref [] and count = ref 0 in
  for u = 0 to n - 1 do
    if (not transit.(u)) && domain_of.(u) < 0 then begin
      let d = !count in
      incr count;
      let acc = ref [] and stack = ref [ u ] in
      domain_of.(u) <- d;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | v :: rest ->
          stack := rest;
          acc := v :: !acc;
          Graph.iter_neighbors g v (fun w _ ->
              if (not transit.(w)) && domain_of.(w) < 0 then begin
                domain_of.(w) <- d;
                stack := w :: !stack
              end)
      done;
      members_rev := Array.of_list (List.sort Int.compare !acc) :: !members_rev
    end
  done;
  let members = Array.of_list (List.rev !members_rev) in
  let domains = Array.length members in
  let gateway = Array.make domains (-1) and attach = Array.make domains (-1) in
  let access = Array.make domains infinity in
  Array.iteri
    (fun d m ->
      Array.iter
        (fun u ->
          Graph.iter_neighbors g u (fun v w ->
              if transit.(v) then begin
                if gateway.(d) >= 0 then invalid_arg "several access links";
                gateway.(d) <- u;
                attach.(d) <- v;
                access.(d) <- w
              end))
        m)
    members;
  { Routing.domain_of; members; gateway; attach; access }

(* The CLI's 1,000-, 5,000- and 20,000-peer underlays (as
   [Pipeline.build] generates them at seed 42) decompose as the
   reference does, array for array, latencies bit for bit. *)
let test_construction_matches_reference () =
  List.iter
    (fun peers ->
      let t =
        Transit_stub.generate ~rng:(Rng.create 43) (P2p_scenario.Pipeline.topology_for peers)
      in
      let g = t.Transit_stub.graph in
      let is_transit u =
        match t.Transit_stub.classes.(u) with
        | Transit_stub.Transit _ -> true
        | Transit_stub.Stub _ -> false
      in
      let got = Routing.decomposition (Routing.create g)
      and want = reference_decomposition g ~is_transit in
      let label what = Printf.sprintf "%d peers: %s" peers what in
      checkb (label "domain_of") true (got.Routing.domain_of = want.Routing.domain_of);
      checkb (label "members") true (got.Routing.members = want.Routing.members);
      checkb (label "gateways") true (got.Routing.gateway = want.Routing.gateway);
      checkb (label "attachments") true (got.Routing.attach = want.Routing.attach);
      checkb (label "access latencies") true
        (Array.map Int64.bits_of_float got.Routing.access
        = Array.map Int64.bits_of_float want.Routing.access))
    [ 1000; 5000; 20000 ]

(* The scan-min all-pairs build [Routing.restricted_all_pairs] replaced:
   per source, settle the unsettled node with the smallest tentative
   distance (ties to the lowest position), relaxing with a strict [<].
   O(s^3) per member set; kept here as the reference. *)
let scan_min_all_pairs graph ~members ~index_of ~in_set =
  let s = Array.length members in
  let dist = Array.make (s * s) infinity in
  let next = Array.make (s * s) (-1) in
  let hops = Array.make (s * s) 0 in
  let d = Array.make s infinity in
  let settled = Array.make s false in
  let first = Array.make s (-1) in
  let hop = Array.make s 0 in
  for si = 0 to s - 1 do
    Array.fill d 0 s infinity;
    Array.fill settled 0 s false;
    Array.fill first 0 s (-1);
    Array.fill hop 0 s 0;
    d.(si) <- 0.0;
    let src = members.(si) in
    for _round = 0 to s - 1 do
      let best = ref (-1) in
      let best_d = ref infinity in
      for j = 0 to s - 1 do
        if (not settled.(j)) && d.(j) < !best_d then begin
          best := j;
          best_d := d.(j)
        end
      done;
      if !best >= 0 then begin
        let u = !best in
        settled.(u) <- true;
        Graph.iter_neighbors graph members.(u) (fun v w ->
            if in_set v then begin
              let vi = index_of v in
              let alt = d.(u) +. w in
              if alt < d.(vi) then begin
                d.(vi) <- alt;
                first.(vi) <- (if members.(u) = src then v else first.(u));
                hop.(vi) <- hop.(u) + 1
              end
            end)
      end
    done;
    let row = si * s in
    for j = 0 to s - 1 do
      dist.(row + j) <- d.(j);
      next.(row + j) <- first.(j);
      hops.(row + j) <- hop.(j)
    done
  done;
  (dist, next, hops)

(* The member sets the link-state backend builds tables for: the
   transit backbone and each stub domain (a connected component of the
   stub-only subgraph), members in ascending node order. *)
let routing_sets t =
  let g = t.Transit_stub.graph in
  let n = Graph.node_count g in
  let transit u =
    match t.Transit_stub.classes.(u) with
    | Transit_stub.Transit _ -> true
    | Transit_stub.Stub _ -> false
  in
  let comp = Array.make n (-1) in
  let sets = ref [] in
  for u = 0 to n - 1 do
    if (not (transit u)) && comp.(u) < 0 then begin
      let c = List.length !sets in
      let acc = ref [] and stack = ref [ u ] in
      comp.(u) <- c;
      while !stack <> [] do
        let v = List.hd !stack in
        stack := List.tl !stack;
        acc := v :: !acc;
        Graph.iter_neighbors g v (fun w _ ->
            if (not (transit w)) && comp.(w) < 0 then begin
              comp.(w) <- c;
              stack := w :: !stack
            end)
      done;
      let members = Array.of_list (List.sort compare !acc) in
      sets := (members, fun v -> (not (transit v)) && comp.(v) = c) :: !sets
    end
  done;
  let backbone = Array.of_list (List.filter transit (List.init n Fun.id)) in
  (backbone, transit) :: List.rev !sets

(* [t]'s graph rebuilt edge for edge, each latency redrawn by [draw],
   with its transit marks. *)
let reweight t draw =
  let g = t.Transit_stub.graph in
  let g' = Graph.create (Graph.node_count g) in
  List.iter (fun e -> Graph.add_edge g' e.Graph.u e.Graph.v ~latency:(draw e)) (Graph.edges g);
  List.iter (Graph.mark_transit g') (Transit_stub.transit_nodes t);
  { t with Transit_stub.graph = g' }

(* Graphs for the table comparison: [shape] 0 is small, 1 the paper's
   1,000-node default, 2 four stub domains of 101-140 nodes with extra
   chords.  With [ties], the graph is rebuilt edge for edge with every
   latency redrawn from {1.0, 2.0}, so equal-length paths are everywhere
   and only the settle order decides the first-hop and hop tables. *)
let table_graph ~seed ~shape ~ties =
  let rng = Rng.create seed in
  let params =
    match shape with
    | 0 -> small_params
    | 1 -> Transit_stub.default_params
    | _ ->
      {
        Transit_stub.default_params with
        Transit_stub.transit_domains = 2;
        transit_nodes = 2;
        stub_domains_per_node = 1;
        stub_nodes = 101 + Rng.int rng 40;
        extra_stub_edges = 40;
      }
  in
  let t = Transit_stub.generate ~rng params in
  if ties then reweight t (fun _ -> if Rng.bool rng then 1.0 else 2.0) else t

(* A block's entries decoded into the reference's three row-major
   arrays: distances, first hops as global ids (-1 for none), hop
   counts. *)
let decode_block b s =
  let cell f = Array.init (s * s) (fun k -> f b (k / s) (k mod s)) in
  (cell Routing.block_dist, cell Routing.block_next, cell Routing.block_hops)

(* [true] when every member set of [t] gets the scan-min build's tables
   from [Routing.restricted_all_pairs], bit for bit: distances compared
   as IEEE bit patterns, decoded first hops and hop counts exactly. *)
let blocks_match_scan_min t =
  let g = t.Transit_stub.graph in
  let index = Array.make (Graph.node_count g) (-1) in
  List.for_all
    (fun (members, in_set) ->
      Array.iteri (fun i u -> index.(u) <- i) members;
      let index_of v = index.(v) in
      let d1, n1, h1 =
        decode_block
          (Routing.restricted_all_pairs g ~members ~index_of ~in_set)
          (Array.length members)
      in
      let d0, n0, h0 = scan_min_all_pairs g ~members ~index_of ~in_set in
      Array.map Int64.bits_of_float d1 = Array.map Int64.bits_of_float d0
      && n1 = n0 && h1 = h0)
    (routing_sets t)

(* Property: the heap-ordered build gives the scan-min build's tables
   bit for bit. *)
let prop_all_pairs_match_scan_min =
  QCheck.Test.make ~name:"restricted_all_pairs = scan-min reference" ~count:15
    QCheck.(triple (int_bound 10_000) (int_bound 2) bool)
    (fun (seed, shape, ties) -> blocks_match_scan_min (table_graph ~seed ~shape ~ties))

(* Property: on transit-stub graphs whose stub domains have 257-296
   nodes — member positions past one byte — the two-byte tables answer
   like the per-source Dijkstra reference on every pair: distances to
   float tolerance (the hierarchical sum adds in another order), hop
   counts and paths exactly (random latencies leave no equal-cost
   ties), and every block decodes to the scan-min reference.  The blocks are compared first: a
   wrong first-hop entry can send [path]'s walk round a cycle. *)
let prop_wide_domains_match_dijkstra =
  QCheck.Test.make ~name:"link_state over 257+-node domains = Dijkstra" ~count:3
    QCheck.(pair (int_bound 10_000) (int_bound 1))
    (fun (seed, extra_transit) ->
      let rng = Rng.create seed in
      let params =
        {
          Transit_stub.default_params with
          Transit_stub.transit_domains = 1 + extra_transit;
          transit_nodes = 1;
          stub_domains_per_node = 1;
          stub_nodes = 257 + Rng.int rng 40;
          extra_stub_edges = 60;
        }
      in
      let t = Transit_stub.generate ~rng params in
      let g = t.Transit_stub.graph in
      let ls = Routing.create g and dij = Dijkstra_ref.create g in
      let n = Graph.node_count g in
      let agree = ref (blocks_match_scan_min t) in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let d = Dijkstra_ref.distance dij u v in
          agree :=
            !agree
            && Float.abs (Routing.distance ls u v -. d) <= 1e-6
            && Routing.hop_count ls u v = Dijkstra_ref.hop_count dij u v
            && Routing.path ls u v = Dijkstra_ref.path dij u v
        done
      done;
      !agree)

(* [t] with every latency set to 1.0: equal-length paths everywhere. *)
let unit_weights t = reweight t (fun _ -> 1.0)

(* [true] when a link-state router over [t] answers every pair inside
   each stub domain as [Routing.restricted_all_pairs]' block of that
   domain does, bit for bit: the distance as an IEEE bit pattern, the
   hop count, and the path, which chains first hops.  The pairs are
   asked in a shuffled order, then all again in another; the second
   round must run no solve, so every answer there is a memo hit (or a
   stored gateway leg) and must equal the miss that stored it. *)
let on_demand_matches_blocks ~rng t =
  let g = t.Transit_stub.graph in
  let ls = Routing.create g in
  let index = Array.make (Graph.node_count g) (-1) in
  let agree = ref true in
  List.iter
    (fun (members, in_set) ->
      Array.iteri (fun i u -> index.(u) <- i) members;
      let index_of v = index.(v) in
      let b = Routing.restricted_all_pairs g ~members ~index_of ~in_set in
      let s = Array.length members in
      let rec block_path i j =
        if i = j then [ members.(j) ]
        else members.(i) :: block_path (index_of (Routing.block_next b i j)) j
      in
      let ask k =
        let i = k / s and j = k mod s in
        let u = members.(i) and v = members.(j) in
        agree :=
          !agree
          && Int64.bits_of_float (Routing.distance ls u v)
             = Int64.bits_of_float (Routing.block_dist b i j)
          && Routing.hop_count ls u v = Routing.block_hops b i j
          && Routing.path ls u v = block_path i j
      in
      let round () =
        let order = Array.init (s * s) Fun.id in
        Rng.shuffle rng order;
        Array.iter ask order
      in
      round ();
      let solved = Routing.solves ls in
      round ();
      agree := !agree && Routing.solves ls = solved)
    (List.tl (routing_sets t));
  !agree

(* Property: on random transit-stub graphs, on their {1, 2}-latency
   rebuilds and on unit-latency ones, stub-domain answers solved on
   first use equal the all-pairs blocks the router no longer keeps. *)
let prop_on_demand_matches_blocks =
  QCheck.Test.make ~name:"link_state on-demand answers = all-pairs blocks" ~count:12
    QCheck.(triple (int_bound 10_000) (int_bound 2) (int_bound 2))
    (fun (seed, shape, weights) ->
      let t = table_graph ~seed ~shape ~ties:(weights = 1) in
      let t = if weights = 2 then unit_weights t else t in
      on_demand_matches_blocks ~rng:(Rng.create (seed + 1)) t)

(* The stub domain of [t] with the most members, and its gateway (the
   member with a transit neighbour). *)
let widest_domain t =
  let members =
    List.fold_left
      (fun best (m, _) -> if Array.length m > Array.length best then m else best)
      [||]
      (List.tl (routing_sets t))
  in
  let transit u =
    match t.Transit_stub.classes.(u) with
    | Transit_stub.Transit _ -> true
    | Transit_stub.Stub _ -> false
  in
  let gw =
    List.find
      (fun u -> List.exists (fun (v, _) -> transit v) (Graph.neighbors t.Transit_stub.graph u))
      (Array.to_list members)
  in
  (members, gw)

(* The CLI's underlay for [peers] (as [Pipeline.build] generates it at
   seed 42) with its own random latencies, with every latency redrawn
   from {1, 2}, and with unit latencies. *)
let cli_underlays peers =
  let t =
    Transit_stub.generate ~rng:(Rng.create 43) (P2p_scenario.Pipeline.topology_for peers)
  in
  let rng = Rng.create peers in
  [
    ("random", t);
    ("{1, 2}", reweight t (fun _ -> if Rng.bool rng then 1.0 else 2.0));
    ("unit", reweight t (fun _ -> 1.0));
  ]

(* Every pair inside every stub domain of [t], asked of a link-state
   router once each, against a fresh settle from its source (a row of
   [Routing.restricted_all_pairs]): the distance as an IEEE bit pattern,
   the first hop and the hop count.  Returns the first disagreement. *)
let settle_disagreement t =
  let g = t.Transit_stub.graph in
  let ls = Routing.create g in
  let index = Array.make (Graph.node_count g) (-1) in
  List.find_map
    (fun (members, in_set) ->
      Array.iteri (fun i u -> index.(u) <- i) members;
      let b = Routing.restricted_all_pairs g ~members ~index_of:(fun v -> index.(v)) ~in_set in
      let s = Array.length members in
      let bad = ref None in
      for i = 0 to s - 1 do
        for j = 0 to s - 1 do
          let u = members.(i) and v = members.(j) in
          if !bad = None && i <> j then begin
            if
              Int64.bits_of_float (Routing.distance ls u v)
              <> Int64.bits_of_float (Routing.block_dist b i j)
              || Routing.next_hop ls u v <> Routing.block_next b i j
              || Routing.hop_count ls u v <> Routing.block_hops b i j
            then bad := Some (u, v)
          end
        done
      done;
      !bad)
    (List.tl (routing_sets t))

let test_trees_match_settle () =
  List.iter
    (fun peers ->
      List.iter
        (fun (weights, t) ->
          match settle_disagreement t with
          | None -> ()
          | Some (u, v) ->
            Alcotest.failf "%d peers, %s latencies: %d -> %d differs from its settle" peers
              weights u v)
        (cli_underlays peers))
    [ 1000; 5000 ]

(* The roots [Routing] plants trees at in a domain: its gateway and the
   endpoints of the edges off the gateway's shortest-path tree, found
   here from the reference router's paths (random latencies leave no
   ties, so the tree is unique). *)
let tree_roots g members gw =
  let dij = Dijkstra_ref.create g in
  let tree = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      let rec edges = function
        | a :: (b :: _ as rest) ->
          Hashtbl.replace tree (min a b, max a b) ();
          edges rest
        | _ -> ()
      in
      edges (Dijkstra_ref.path dij gw v))
    members;
  let inside = Array.to_list members in
  let ends =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun (v, _) ->
            if List.mem v inside && not (Hashtbl.mem tree (min u v, max u v)) then Some u
            else None)
          (Graph.neighbors g u))
      inside
  in
  List.length (List.sort_uniq compare ends)

(* One domain of the 5,000-peer underlay (139 members) answered pair by
   pair: with random latencies from its trees alone, one solve per root;
   with unit latencies the trees cannot vouch for some pairs, which fall
   back to solves of their own. *)
let test_tree_solve_counts () =
  let solves t =
    let members, gw = widest_domain t in
    let ls = Routing.create t.Transit_stub.graph in
    Array.iter
      (fun u ->
        Array.iter
          (fun v -> if v <> u && v <> gw then ignore (Routing.distance ls u v : float))
          members)
      members;
    (members, gw, Routing.solves ls)
  in
  match cli_underlays 5000 with
  | [ (_, random); _; (_, unit) ] ->
    let members, gw, n = solves random in
    checki "139 members" 139 (Array.length members);
    let roots = tree_roots random.Transit_stub.graph members gw in
    checkb (Printf.sprintf "%d solves <= 1 + %d roots" n roots) true (n <= 1 + roots);
    (* two roots per edge off the tree at most, whatever the latencies *)
    let inside = Array.to_list members in
    let edges =
      List.fold_left
        (fun acc u ->
          acc
          + List.length
              (List.filter (fun (v, _) -> u < v && List.mem v inside)
                 (Graph.neighbors random.Transit_stub.graph u)))
        0 inside
    in
    let off_tree = edges - (Array.length members - 1) in
    let _, _, n = solves unit in
    checkb
      (Printf.sprintf "unit latencies fall back (%d solves, %d edges off the tree)" n off_tree)
      true
      (n > 1 + (2 * off_tree))
  | _ -> assert false

(* With random latencies every host's leg to its gateway comes from the
   one gateway-rooted solve; with unit latencies, ties send hosts to
   solves of their own, and the answers still match the reference's hop
   counts. *)
let test_gateway_legs () =
  let legs_solves t =
    let members, gw = widest_domain t in
    let g = t.Transit_stub.graph in
    let ls = Routing.create g and dij = Dijkstra_ref.create g in
    Array.iter
      (fun u ->
        checki "leg hops = Dijkstra's" (Dijkstra_ref.hop_count dij u gw)
          (Routing.hop_count ls u gw))
      members;
    (Array.length members, Routing.solves ls)
  in
  let t = table_graph ~seed:3 ~shape:2 ~ties:false in
  let s, solves = legs_solves t in
  checkb "a wide domain" true (s > 100);
  checki "one gateway-rooted solve" 1 solves;
  let _, solves = legs_solves (unit_weights t) in
  checkb "ties fall back to per-host solves" true (solves > 1)

(* The shapes the property draws really have ties and big domains. *)
let test_table_graph_shapes () =
  let t = table_graph ~seed:3 ~shape:2 ~ties:true in
  let largest =
    List.fold_left (fun acc (m, _) -> max acc (Array.length m)) 0 (routing_sets t)
  in
  checkb "a stub domain of more than 100 nodes" true (largest > 100);
  checkb "latencies drawn from {1, 2}" true
    (List.for_all
       (fun e -> e.Graph.latency = 1.0 || e.Graph.latency = 2.0)
       (Graph.edges t.Transit_stub.graph))

(* --- Link_stress --- *)

let test_stress_basic () =
  let g = line_graph 4 in
  let s = Link_stress.create g in
  Link_stress.charge_path s [ 0; 1; 2 ];
  Link_stress.charge_path s [ 1; 2; 3 ];
  checki "link 0-1" 1 (Link_stress.stress s 0 1);
  checki "link 1-2 charged twice" 2 (Link_stress.stress s 1 2);
  checki "order irrelevant" 2 (Link_stress.stress s 2 1);
  checki "uncharged" 0 (Link_stress.stress s 2 3 - 1);
  checki "total" 4 (Link_stress.total s);
  checki "max" 2 (Link_stress.max_stress s);
  checkf "mean over used" (4.0 /. 3.0) (Link_stress.mean_over_used_links s)

let test_stress_trivial_paths () =
  let s = Link_stress.create (line_graph 3) in
  Link_stress.charge_path s [];
  Link_stress.charge_path s [ 1 ];
  checki "nothing charged" 0 (Link_stress.total s)

let test_stress_clear () =
  let s = Link_stress.create (line_graph 3) in
  Link_stress.charge_path s [ 0; 1; 2 ];
  Link_stress.clear s;
  checki "cleared" 0 (Link_stress.total s);
  checki "max cleared" 0 (Link_stress.max_stress s)

(* --- Landmark --- *)

let test_landmark_selection () =
  let r = Routing.create (line_graph 10) in
  let rng = Rng.create 6 in
  let marks = Landmark.select_landmarks ~rng r ~count:3 in
  checki "count" 3 (List.length marks);
  checki "distinct" 3 (List.length (List.sort_uniq compare marks));
  Alcotest.check_raises "too many" (Invalid_argument "Landmark.select_landmarks")
    (fun () -> ignore (Landmark.select_landmarks ~rng r ~count:11 : int list))

let test_landmark_farthest_point_spread () =
  (* On a line, 2 landmarks by farthest-point sampling must include both
     extremes or at least be far apart. *)
  let r = Routing.create (line_graph 100) in
  let rng = Rng.create 7 in
  match Landmark.select_landmarks ~rng r ~count:2 with
  | [ a; b ] -> checkb "spread out" true (abs (a - b) > 50)
  | _ -> Alcotest.fail "expected two landmarks"

let test_landmark_clusters () =
  let r = Routing.create (line_graph 10) in
  let t = Landmark.create r ~landmarks:[ 0; 9 ] ~levels:[] in
  (* nodes 0..4 are closer to 0; nodes 5..9 closer to 9 *)
  checkb "same side same cluster" true
    (Landmark.cluster_id t 1 = Landmark.cluster_id t 2);
  checkb "opposite sides differ" true
    (Landmark.cluster_id t 1 <> Landmark.cluster_id t 8);
  checki "two clusters" 2 (Landmark.cluster_count t)

let test_landmark_levels_refine () =
  let r = Routing.create (line_graph 10) in
  let coarse = Landmark.create r ~landmarks:[ 0; 9 ] ~levels:[] in
  let fine = Landmark.create r ~landmarks:[ 0; 9 ] ~levels:[ 2.0; 5.0 ] in
  ignore (Landmark.cluster_id coarse 1 : int);
  ignore (Landmark.cluster_id coarse 4 : int);
  ignore (Landmark.cluster_id fine 1 : int);
  ignore (Landmark.cluster_id fine 4 : int);
  (* with latency levels, node 1 (d=1 to landmark 0) and node 4 (d=4)
     split into different clusters even though the ordering is the same *)
  checkb "levels refine clusters" true
    (Landmark.cluster_id fine 1 <> Landmark.cluster_id fine 4);
  checkb "ordering-only merges them" true
    (Landmark.cluster_id coarse 1 = Landmark.cluster_id coarse 4)

let test_landmark_coordinate_stable () =
  let r = Routing.create (line_graph 6) in
  let t = Landmark.create r ~landmarks:[ 0; 5 ] ~levels:[] in
  Alcotest.check Alcotest.string "memoized" (Landmark.coordinate t 3) (Landmark.coordinate t 3)

let suite =
  [
    Alcotest.test_case "graph: basics" `Quick test_graph_basic;
    Alcotest.test_case "graph: rejects bad edges" `Quick test_graph_rejects;
    Alcotest.test_case "graph: edges listing" `Quick test_graph_edges_listing;
    Alcotest.test_case "graph: connectivity" `Quick test_graph_connectivity;
    Alcotest.test_case "transit-stub: node count" `Quick test_ts_node_count;
    Alcotest.test_case "transit-stub: connected" `Quick test_ts_connected;
    Alcotest.test_case "transit-stub: classes" `Quick test_ts_classes;
    Alcotest.test_case "transit-stub: deterministic" `Quick test_ts_deterministic;
    Alcotest.test_case "transit-stub: latency classes" `Quick test_ts_latency_classes;
    Alcotest.test_case "transit-stub: rejects bad params" `Quick test_ts_rejects;
    Alcotest.test_case "routing: line graph" `Quick test_routing_line;
    Alcotest.test_case "routing: picks shortcut" `Quick test_routing_shortcut;
    Alcotest.test_case "routing: unreachable" `Quick test_routing_unreachable;
    Alcotest.test_case "routing: symmetric" `Quick test_routing_symmetric;
    Alcotest.test_case "routing: triangle inequality" `Quick test_routing_triangle_inequality;
    Alcotest.test_case "routing: link-state matches Dijkstra" `Quick
      test_link_state_matches_dijkstra;
    Alcotest.test_case "routing: link-state manual hierarchy" `Quick test_link_state_manual;
    Alcotest.test_case "routing: flat router's empty, single and split graphs" `Quick
      test_flat_edge_cases;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261044 |])
      prop_flat_matches_reference;
    Alcotest.test_case "routing: flat construction = the list-based reference" `Quick
      test_construction_matches_reference;
    Alcotest.test_case "routing: link-state rejects multi-access domains" `Quick
      test_link_state_rejects_multi_access;
    Alcotest.test_case "routing: table-test graphs have ties and big domains" `Quick
      test_table_graph_shapes;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261017 |])
      prop_all_pairs_match_scan_min;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261019 |])
      prop_wide_domains_match_dijkstra;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261039 |])
      prop_on_demand_matches_blocks;
    Alcotest.test_case "routing: gateway legs from one rooted solve" `Quick test_gateway_legs;
    Alcotest.test_case "routing: tree answers = settle, bit for bit" `Quick
      test_trees_match_settle;
    Alcotest.test_case "routing: one solve per tree root" `Quick test_tree_solve_counts;
    Alcotest.test_case "stress: accounting" `Quick test_stress_basic;
    Alcotest.test_case "stress: trivial paths" `Quick test_stress_trivial_paths;
    Alcotest.test_case "stress: clear" `Quick test_stress_clear;
    Alcotest.test_case "landmark: selection" `Quick test_landmark_selection;
    Alcotest.test_case "landmark: farthest-point spread" `Quick test_landmark_farthest_point_spread;
    Alcotest.test_case "landmark: clustering" `Quick test_landmark_clusters;
    Alcotest.test_case "landmark: latency levels refine" `Quick test_landmark_levels_refine;
    Alcotest.test_case "landmark: coordinate memoized" `Quick test_landmark_coordinate_stable;
  ]
