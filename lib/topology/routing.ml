type source_result = { dist : float array; prev : int array }

(* The reference router: one Dijkstra tree per source, cached without
   bound once computed. *)
type graph_routed = { graph : Graph.t; cache : source_result option array }

(* One all-pairs block over a member set — a stub domain or the transit
   backbone — s*s entries row-major in member positions.  [dist] is a
   float per pair; the first hop (a member position, [no_hop] when there
   is none) and the hop count are unsigned 16-bit, two bytes each in
   [next] and [hops]: 12 bytes per pair. *)
type block = { members : int array; dist : float array; next : Bytes.t; hops : Bytes.t }

let no_hop = 0xFFFF

(* positions 0 .. max_block_members - 1 and hop counts up to
   max_block_members - 1 fit below [no_hop] *)
let max_block_members = 65_534

(* Precomputed link-state tables over a transit-stub hierarchy (the
   TinyOS LinkStateC idea: pay for SPF once, amortize over every routed
   message).  The decomposition exploits the topology's structure: a
   stub domain touches the rest of the graph through exactly one access
   link, so every inter-domain shortest path factors as
   stub -> gateway -> transit backbone -> gateway -> stub.  We therefore
   store all-pairs tables only *inside* each (small) stub domain and
   over the transit backbone — O(sum s_i^2 + g^2) memory, not O(n^2) —
   and answer any [distance]/[hop_count] query with O(1) arithmetic over
   those tables. *)
type link_state = {
  ls_graph : Graph.t;
  domain_of : int array; (* stub-domain id per node; -1 for transit nodes *)
  index : int array; (* node -> its position in its domain's block, or the backbone's *)
  dom_gateway : int array; (* domain -> gateway node, -1 when isolated *)
  dom_attach : int array; (* domain -> transit node of the access link *)
  dom_access : float array; (* domain -> access-link latency *)
  domains : block array;
  backbone : block;
}

(* [Synthetic] short-circuits path computation entirely: every distinct
   pair is one hop at a fixed latency.  Million-node underlays cannot
   afford per-source Dijkstra (the cache alone is O(n) per source), and
   overlay-scalability studies do not need real path diversity. *)
type t =
  | Graph_routed of graph_routed
  | Synthetic of { graph : Graph.t; latency : float }
  | Link_state of link_state

let create graph =
  Graph_routed { graph; cache = Array.make (Graph.node_count graph) None }

let synthetic ~nodes ~latency =
  if nodes < 0 then invalid_arg "Routing.synthetic: negative node count";
  if latency <= 0.0 then invalid_arg "Routing.synthetic: latency must be positive";
  Synthetic { graph = Graph.create nodes; latency }

(* Dijkstra with a simple binary heap of (distance, node). *)
module Heap = struct
  type t = { mutable data : (float * int) array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let push h x =
    let cap = Array.length h.data in
    if h.size = cap then begin
      let data = Array.make (if cap = 0 then 16 else cap * 2) x in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end;
    h.data.(h.size) <- x;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(!i) in
      h.data.(!i) <- h.data.(p);
      h.data.(p) <- tmp;
      i := p
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.data.(0) <- h.data.(h.size);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
          if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
          if !smallest = !i then continue := false
          else begin
            let tmp = h.data.(!i) in
            h.data.(!i) <- h.data.(!smallest);
            h.data.(!smallest) <- tmp;
            i := !smallest
          end
        done
      end;
      Some top
    end
end

let dijkstra graph src =
  let n = Graph.node_count graph in
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let settled = Array.make n false in
  dist.(src) <- 0.0;
  let heap = Heap.create () in
  Heap.push heap (0.0, src);
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
      if not settled.(u) then begin
        settled.(u) <- true;
        Graph.iter_neighbors graph u (fun v w ->
            let alt = d +. w in
            if alt < dist.(v) then begin
              dist.(v) <- alt;
              prev.(v) <- u;
              Heap.push heap (alt, v)
            end)
      end;
      loop ()
  in
  loop ();
  { dist; prev }

let source_result t src =
  match t.cache.(src) with
  | Some r -> r
  | None ->
    let r = dijkstra t.graph src in
    t.cache.(src) <- Some r;
    r

(* --- link-state construction --- *)

(* All-pairs Dijkstra over the subgraph induced by [members] (neighbours
   outside the set are ignored), one source at a time.  The induced
   subgraph is flattened once into a domain-local adjacency (CSR arrays,
   neighbours in [Graph.iter_neighbors] order), so the relax loop reads
   only int and float arrays.  The frontier is a binary heap over the
   pair (tentative distance, local index) with lazy deletion: nodes
   settle smallest distance first, ties to the lowest index, and
   relaxation uses a strict [<] — the order and tie rule of a scan for
   the minimum, so the tables do not depend on the frontier structure.
   O(s (s + e) log s) per set instead of the scan's O(s^3).  Each
   source's row is the block's own row: tentative distances, first hops
   and hop counts are written where they will be read, so there is no
   per-row scratch beyond the settled marks and no copy afterwards. *)
let restricted_all_pairs graph ~members ~index_of ~in_set =
  let s = Array.length members in
  if s > max_block_members then
    invalid_arg
      (Printf.sprintf "Routing.link_state: a member set of %d nodes (at most %d)" s
         max_block_members);
  let adj_start = Array.make (s + 1) 0 in
  Array.iteri
    (fun i u ->
      let deg = ref 0 in
      Graph.iter_neighbors graph u (fun v _ -> if in_set v then incr deg);
      adj_start.(i + 1) <- adj_start.(i) + !deg)
    members;
  let e = adj_start.(s) in
  let adj = Array.make e 0 in
  let adj_w = Array.make e 0.0 in
  Array.iteri
    (fun i u ->
      let k = ref adj_start.(i) in
      Graph.iter_neighbors graph u (fun v w ->
          if in_set v then begin
            adj.(!k) <- index_of v;
            adj_w.(!k) <- w;
            incr k
          end))
    members;
  let dist = Array.make (s * s) infinity in
  let next = Bytes.make (2 * s * s) '\255' in
  let hops = Bytes.make (2 * s * s) '\000' in
  let settled = Array.make s false in
  (* every push follows a successful relaxation, so e + 1 entries bound
     the heap *)
  let hd = Array.make (e + 1) 0.0 in
  let hi = Array.make (e + 1) 0 in
  let size = ref 0 in
  let[@inline] less a b =
    hd.(a) < hd.(b) || (hd.(a) = hd.(b) && hi.(a) < hi.(b))
  in
  let swap a b =
    let td = hd.(a) and ti = hi.(a) in
    hd.(a) <- hd.(b);
    hi.(a) <- hi.(b);
    hd.(b) <- td;
    hi.(b) <- ti
  in
  let push dv v =
    let i = ref !size in
    hd.(!i) <- dv;
    hi.(!i) <- v;
    incr size;
    while !i > 0 && less !i ((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      swap !i p;
      i := p
    done
  in
  let pop () =
    let top = hi.(0) in
    decr size;
    if !size > 0 then begin
      hd.(0) <- hd.(!size);
      hi.(0) <- hi.(!size);
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        let m = if l < !size && less l !i then l else !i in
        let m = if l + 1 < !size && less (l + 1) m then l + 1 else m in
        if m = !i then continue := false
        else begin
          swap !i m;
          i := m
        end
      done
    end;
    top
  in
  for si = 0 to s - 1 do
    let row = si * s in
    Array.fill settled 0 s false;
    dist.(row + si) <- 0.0;
    size := 0;
    push 0.0 si;
    while !size > 0 do
      let u = pop () in
      (* a stale entry: [u] settled through a shorter entry already *)
      if not settled.(u) then begin
        settled.(u) <- true;
        let du = dist.(row + u) in
        (* a settled node's entries are final: no relaxation below
           improves on [du] *)
        let first_u = Bytes.get_uint16_ne next (2 * (row + u)) in
        let hop_v = Bytes.get_uint16_ne hops (2 * (row + u)) + 1 in
        for k = adj_start.(u) to adj_start.(u + 1) - 1 do
          let vi = adj.(k) in
          let alt = du +. adj_w.(k) in
          if alt < dist.(row + vi) then begin
            dist.(row + vi) <- alt;
            Bytes.set_uint16_ne next (2 * (row + vi)) (if u = si then vi else first_u);
            Bytes.set_uint16_ne hops (2 * (row + vi)) hop_v;
            push alt vi
          end
        done
      end
    done
  done;
  { members; dist; next; hops }

let[@inline] block_entry b i j = (i * Array.length b.members) + j
let block_dist b i j = b.dist.(block_entry b i j)
let block_hops b i j = Bytes.get_uint16_ne b.hops (2 * block_entry b i j)

let block_next b i j =
  let x = Bytes.get_uint16_ne b.next (2 * block_entry b i j) in
  if x = no_hop then -1 else b.members.(x)

let build_link_state graph ~is_transit =
  let n = Graph.node_count graph in
  let transit = Array.init n is_transit in
  (* stub domains = connected components of the stub-only subgraph *)
  let domain_of = Array.make n (-1) in
  let members_rev = ref [] in
  let domain_count = ref 0 in
  let stack = ref [] in
  for u = 0 to n - 1 do
    if (not transit.(u)) && domain_of.(u) < 0 then begin
      let d = !domain_count in
      incr domain_count;
      let acc = ref [] in
      domain_of.(u) <- d;
      stack := [ u ];
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | v :: rest ->
          stack := rest;
          acc := v :: !acc;
          Graph.iter_neighbors graph v (fun w _ ->
              if (not transit.(w)) && domain_of.(w) < 0 then begin
                domain_of.(w) <- d;
                stack := w :: !stack
              end)
      done;
      members_rev := Array.of_list (List.rev !acc) :: !members_rev
    end
  done;
  let dom_members = Array.of_list (List.rev !members_rev) in
  let domains = Array.length dom_members in
  let t_nodes =
    let acc = ref [] in
    for u = n - 1 downto 0 do
      if transit.(u) then acc := u :: !acc
    done;
    Array.of_list !acc
  in
  let index = Array.make n 0 in
  Array.iter
    (fun members -> Array.iteri (fun i u -> index.(u) <- i) members)
    dom_members;
  Array.iteri (fun i u -> index.(u) <- i) t_nodes;
  let index_of v = index.(v) in
  (* access links: each domain must touch the backbone through at most
     one stub-to-transit edge, the structural invariant the whole
     decomposition rests on *)
  let dom_gateway = Array.make domains (-1) in
  let dom_attach = Array.make domains (-1) in
  let dom_access = Array.make domains infinity in
  Array.iteri
    (fun d members ->
      Array.iter
        (fun u ->
          Graph.iter_neighbors graph u (fun v w ->
              if transit.(v) then begin
                if dom_gateway.(d) >= 0 then
                  invalid_arg
                    (Printf.sprintf
                       "Routing.link_state: stub domain %d has several access \
                        links (not transit-stub shaped)"
                       d);
                dom_gateway.(d) <- u;
                dom_attach.(d) <- v;
                dom_access.(d) <- w
              end))
        members)
    dom_members;
  {
    ls_graph = graph;
    domain_of;
    index;
    dom_gateway;
    dom_attach;
    dom_access;
    domains =
      Array.mapi
        (fun d members ->
          restricted_all_pairs graph ~members ~index_of
            ~in_set:(fun v -> (not transit.(v)) && domain_of.(v) = d))
        dom_members;
    backbone =
      restricted_all_pairs graph ~members:t_nodes ~index_of ~in_set:(fun v -> transit.(v));
  }

let link_state graph ~is_transit =
  Link_state (build_link_state graph ~is_transit)

(* --- link-state queries --- *)

(* Entries of block [b] between two of its member nodes, read through
   the node -> position map; the same three reads serve a stub domain
   and the backbone. *)
let[@inline] ls_dist ls b u v = block_dist b ls.index.(u) ls.index.(v)
let[@inline] ls_hops ls b u v = block_hops b ls.index.(u) ls.index.(v)
let ls_next ls b u v = block_next b ls.index.(u) ls.index.(v)

(* The climb from node [u] (in stub domain [du]; -1 for a transit node)
   up to its backbone attachment point, read as separate scalars so the
   per-message queries allocate no tuple.  [ls_attach] is [u] itself for
   a transit node and -1 when the domain has no access link; the climb's
   latency and hop count are meaningful only when the attachment
   exists. *)
let ls_attach ls u du =
  if du < 0 then u else if ls.dom_gateway.(du) < 0 then -1 else ls.dom_attach.(du)

let[@inline] ls_up_dist ls u du =
  if du < 0 then 0.0
  else ls_dist ls ls.domains.(du) u ls.dom_gateway.(du) +. ls.dom_access.(du)

let ls_up_hops ls u du =
  if du < 0 then 0 else ls_hops ls ls.domains.(du) u ls.dom_gateway.(du) + 1

let ls_distance ls u v =
  if u = v then 0.0
  else begin
    let du = ls.domain_of.(u) and dv = ls.domain_of.(v) in
    if du >= 0 && du = dv then ls_dist ls ls.domains.(du) u v
    else if du < 0 && dv < 0 then ls_dist ls ls.backbone u v
    else begin
      let au = ls_attach ls u du and av = ls_attach ls v dv in
      if au < 0 || av < 0 then infinity
      else ls_up_dist ls u du +. ls_dist ls ls.backbone au av +. ls_up_dist ls v dv
    end
  end

(* 0 when [v] is unreachable from [u]: callers check [ls_distance]
   first *)
let ls_hop_count ls u v =
  if u = v then 0
  else begin
    let du = ls.domain_of.(u) and dv = ls.domain_of.(v) in
    if du >= 0 && du = dv then ls_hops ls ls.domains.(du) u v
    else if du < 0 && dv < 0 then ls_hops ls ls.backbone u v
    else begin
      let au = ls_attach ls u du and av = ls_attach ls v dv in
      if au < 0 || av < 0 then 0
      else ls_up_hops ls u du + ls_hops ls ls.backbone au av + ls_up_hops ls v dv
    end
  end

(* First hop from [u] toward [v]; -1 when unreachable.  Mirrors the
   distance decomposition: head for the gateway, cross the backbone to
   the destination domain's attachment, drop down its access link,
   finish inside the domain. *)
let ls_next_hop ls u v =
  let du = ls.domain_of.(u) and dv = ls.domain_of.(v) in
  if u = v then u
  else if du >= 0 && du = dv then ls_next ls ls.domains.(du) u v
  else if du >= 0 then begin
    let gw = ls.dom_gateway.(du) in
    if gw < 0 then -1
    else if u = gw then ls.dom_attach.(du)
    else ls_next ls ls.domains.(du) u gw
  end
  else if dv < 0 then ls_next ls ls.backbone u v
  else begin
    let a = ls.dom_attach.(dv) in
    if a < 0 then -1
    else if u = a then ls.dom_gateway.(dv)
    else ls_next ls ls.backbone u a
  end

let ls_path ls u v =
  if ls_distance ls u v = infinity then raise Not_found;
  let rec collect node acc =
    if node = v then List.rev (v :: acc)
    else collect (ls_next_hop ls node v) (node :: acc)
  in
  if u = v then [ u ] else collect u []

(* --- the common query surface --- *)

let distance t u v =
  match t with
  | Graph_routed t -> (source_result t u).dist.(v)
  | Synthetic { latency; _ } -> if u = v then 0.0 else latency
  | Link_state ls -> ls_distance ls u v

let path t u v =
  match t with
  | Graph_routed t ->
    let r = source_result t u in
    if r.dist.(v) = infinity then raise Not_found;
    let rec build acc node =
      if node = u then u :: acc else build (node :: acc) r.prev.(node)
    in
    build [] v
  | Synthetic _ -> if u = v then [ u ] else [ u; v ]
  | Link_state ls -> ls_path ls u v

(* Hop counting never materializes the path: graph mode walks the
   predecessor chain, link-state mode adds three table entries. *)
let reachable_hops t u v =
  match t with
  | Graph_routed t ->
    if u = v then 0
    else begin
      let r = source_result t u in
      let hops = ref 0 in
      let node = ref v in
      while !node <> u do
        node := r.prev.(!node);
        incr hops
      done;
      !hops
    end
  | Synthetic _ -> if u = v then 0 else 1
  | Link_state ls -> ls_hop_count ls u v

let hop_count t u v =
  if u <> v && distance t u v = infinity then raise Not_found;
  reachable_hops t u v

let graph = function
  | Graph_routed t -> t.graph
  | Synthetic { graph; _ } -> graph
  | Link_state ls -> ls.ls_graph
