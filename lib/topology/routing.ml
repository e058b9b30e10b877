(* The subgraph induced by a member set — a stub domain or the transit
   backbone — flattened into a set-local adjacency (CSR arrays over
   member positions, neighbours in [Graph.iter_neighbors] order), so a
   relax loop reads only int and float arrays. *)
type subgraph = {
  members : int array;
  adj_start : int array; (* position -> first slot of its row; s + 1 entries *)
  adj : int array; (* neighbour positions *)
  adj_w : float array; (* latency of each [adj] edge *)
  rev : int array; (* slot of [x -> y] -> the slot of [y -> x] in [y]'s row *)
}

(* One all-pairs block over a member set, s*s entries row-major in
   member positions.  [dist] is a float per pair; the first hop (a member
   position, [no_hop] when there is none) and the hop count are unsigned
   16-bit, two bytes each in [next] and [hops]: 12 bytes per pair. *)
type block = { set : subgraph; dist : float array; next : Bytes.t; hops : Bytes.t }

let no_hop = 0xFFFF

(* positions 0 .. max_block_members - 1 and hop counts up to
   max_block_members - 1 fit below [no_hop] *)
let max_block_members = 65_534

(* The working arrays of one per-source solve, indexed by member
   position and sized to the largest set they serve.  Only [tent] and
   [settled] are reset per solve: [first], [depth] and [up] are written
   whenever [tent] drops below [infinity], and read only then.  The
   frontier is a binary heap of (tentative distance, position) pairs in
   two unboxed columns; every push follows a successful relaxation, so
   edges + 1 entries bound it.  A solve stopped early leaves its
   frontier in the heap, so it can be resumed. *)
type scratch = {
  tent : float array;
  first : int array; (* first hop from the source, -1 at the source *)
  depth : int array; (* hop count from the source *)
  up : int array; (* the tree edge toward the source, a slot of the node's own row; -1 there *)
  settled : bool array;
  order : int array; (* the positions settled so far, in the order they settled *)
  mutable count : int;
  heap_d : float array;
  heap_i : int array;
  mutable heap_size : int;
}

let scratch ~nodes ~edges =
  {
    tent = Array.make nodes infinity;
    first = Array.make nodes (-1);
    depth = Array.make nodes 0;
    up = Array.make nodes (-1);
    settled = Array.make nodes false;
    order = Array.make nodes 0;
    count = 0;
    heap_d = Array.make (edges + 1) 0.0;
    heap_i = Array.make (edges + 1) 0;
    heap_size = 0;
  }

(* In-domain answers already solved, open-addressed over unboxed
   columns keyed by [u * n + v] (global node ids, [n] the node count),
   as [Data_store] keys its items.  A probe allocates nothing.  Only the
   pairs a run asks for are ever solved and kept, so the memo never
   holds more than the Σ sᵢ² entries the all-pairs tables did.  The
   table is allocated on the first answer at [start] slots, twice the
   stub hosts: the CLI's runs ask fewer pairs than three quarters of
   that, so they never grow it. *)
type memo = {
  start : int;
  mutable keys : int array; (* [u * n + v], or [empty_key] *)
  mutable m_dist : float array;
  mutable m_route : int array; (* first hop lsl [route_bits] lor hop count *)
  mutable m_count : int;
}

let empty_key = -1

let route_bits = 31

let hops_mask = (1 lsl route_bits) - 1

(* A stub domain's few shortest-path trees.  Tree 0 is recorded from the
   domain's one gateway solve, whichever of its first leg and its first
   in-domain pair not ending at the gateway asks first; the others are
   planted on that first pair.  Tree 0 is rooted at the gateway (at
   position 0 in a domain with no access link); every other
   tree is rooted at an endpoint of an edge off tree 0, so every simple
   path in the domain is either tree 0's path or passes through a root.
   Per tree and member position: the position's edge toward the root as
   a slot of the domain's [adj] (so a step reads the next node and the
   latency without a scan of the row) and its hop count, both unsigned
   16-bit ([no_hop] at the root); for the trees past 0 also the
   distance from the root, which prices the candidate paths, and
   whether the position is clear ([mark_clear]: 1) or not (2). *)
type trees = {
  size : int; (* the domain's member count: tree [r]'s entries start at [r * size] *)
  roots : int array; (* member positions *)
  root_of : Bytes.t; (* position -> its index in [roots] past 0, else 0 *)
  t_dist : float array; (* tree [r > 0]'s entries start at [(r - 1) * size] *)
  t_up : Bytes.t;
  t_depth : Bytes.t;
  clear : Bytes.t;
}

(* A domain's in-domain pairs are answered from its trees once planted
   ([Rooted]: only tree 0 so far), or each by its own solve when the
   domain has more than [max_roots] roots past the gateway or more edge
   slots than two bytes can number. *)
type oracle = Unplanted | Rooted of trees | Per_pair | Trees of trees

let max_roots = 6

(* Link-state routing over a transit-stub hierarchy.  A stub domain
   touches the rest of the graph through exactly one access link, so
   every inter-domain shortest path factors as
   stub -> gateway -> transit backbone -> gateway -> stub.  The backbone
   (a handful of nodes) keeps an all-pairs block.  Stub domains keep their
   adjacency and, once asked for a pair inside, a few shortest-path
   trees: an in-domain answer is read off the trees when they vouch for
   it and otherwise solved by its source's Dijkstra, stopped when the
   target settles, and memoized either way.  Each host's leg to its
   domain's gateway — read twice by every cross-domain message — lives
   in three per-host arrays filled on first use.  Memory follows what a
   run asks for, not O(Σ sᵢ²).  A graph with no transit node is one or
   more stub domains with no access link: each connected component is
   routed by its trees and solves alone. *)
type t = {
  graph : Graph.t;
  domain_of : int array; (* stub-domain id per node; -1 for transit nodes *)
  index : int array; (* node -> its position in its domain, or the backbone's *)
  dom_gateway : int array; (* domain -> gateway node, -1 when isolated *)
  dom_attach : int array; (* domain -> transit node of the access link *)
  dom_access : float array; (* domain -> access-link latency *)
  domains : subgraph array;
  backbone : block;
  leg_dist : float array; (* node -> in-domain distance to its gateway *)
  leg_hops : int array; (* ... hop count; -1 while not yet solved *)
  leg_next : int array; (* ... first hop, -1 at the gateway itself *)
  legs_rooted : bool array; (* domain -> its gateway tree has run *)
  oracle : oracle array; (* per domain *)
  work : scratch;
  (* the domain and source position of the solve [work] holds, resumable;
     [warm_src] is -1 when [work] holds anything else *)
  mutable warm_dom : int;
  mutable warm_src : int;
  walk : int array; (* a tree path's lower half, climbed before it is folded *)
  memo : memo;
  mutable solves : int;
}

(* --- the per-source settle loop --- *)

(* Each slot's reverse: the slot of the same edge in the other end's
   row, found once per edge. *)
let reverse_slots adj_start adj =
  let rev = Array.make (Array.length adj) (-1) in
  for x = 0 to Array.length adj_start - 2 do
    for k = adj_start.(x) to adj_start.(x + 1) - 1 do
      let y = adj.(k) in
      if x < y then begin
        let k' = ref adj_start.(y) in
        while adj.(!k') <> x do
          incr k'
        done;
        rev.(k) <- !k';
        rev.(!k') <- k
      end
    done
  done;
  rev

(* The subgraph induced by [members], in one pass over their adjacency
   lists: each row's in-set neighbours go to [buf_adj] and [buf_w]
   (room for every slot), which are then copied out; [outside u v w]
   sees each edge from member [u] to a node [v] outside the set. *)
let subgraph graph ~members ~index_of ~in_set ~outside ~buf_adj ~buf_w =
  let s = Array.length members in
  let adj_start = Array.make (s + 1) 0 in
  let k = ref 0 in
  let rec row u = function
    | [] -> ()
    | (v, w) :: rest ->
      if in_set v then begin
        buf_adj.(!k) <- index_of v;
        buf_w.(!k) <- w;
        incr k
      end
      else outside u v w;
      row u rest
  in
  for i = 0 to s - 1 do
    let u = members.(i) in
    row u (Graph.neighbors graph u);
    adj_start.(i + 1) <- !k
  done;
  let adj = Array.sub buf_adj 0 !k in
  { members; adj_start; adj; adj_w = Array.sub buf_w 0 !k; rev = reverse_slots adj_start adj }

let edge_count set = Array.length set.adj

(* Heap order: smaller tentative distance first, ties to the lower
   position.  The helpers take heap slots, never floats, so no float is
   boxed across a call. *)
let[@inline] heap_less sc a b =
  let da = sc.heap_d.(a) and db = sc.heap_d.(b) in
  da < db || (da = db && sc.heap_i.(a) < sc.heap_i.(b))

let heap_swap sc a b =
  let td = sc.heap_d.(a) and ti = sc.heap_i.(a) in
  sc.heap_d.(a) <- sc.heap_d.(b);
  sc.heap_i.(a) <- sc.heap_i.(b);
  sc.heap_d.(b) <- td;
  sc.heap_i.(b) <- ti

let sift_up sc slot =
  let i = ref slot in
  while !i > 0 && heap_less sc !i ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    heap_swap sc !i p;
    i := p
  done

let heap_pop sc =
  let top = sc.heap_i.(0) in
  let size = sc.heap_size - 1 in
  sc.heap_size <- size;
  if size > 0 then begin
    sc.heap_d.(0) <- sc.heap_d.(size);
    sc.heap_i.(0) <- sc.heap_i.(size);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let m = if l < size && heap_less sc l !i then l else !i in
      let m = if l + 1 < size && heap_less sc (l + 1) m then l + 1 else m in
      if m = !i then continue := false
      else begin
        heap_swap sc !i m;
        i := m
      end
    done
  end;
  top

(* The settle loop of [settle] below, run on from the frontier [sc]
   holds until position [stop] has settled ([-1]: the whole set). *)
let advance sc set ~stop =
  while sc.heap_size > 0 && (stop < 0 || not sc.settled.(stop)) do
    let u = heap_pop sc in
    (* a stale entry: [u] settled through a shorter entry already *)
    if not sc.settled.(u) then begin
      sc.settled.(u) <- true;
      sc.order.(sc.count) <- u;
      sc.count <- sc.count + 1;
      let du = sc.tent.(u) in
      let first_u = sc.first.(u) and depth_v = sc.depth.(u) + 1 in
      for k = set.adj_start.(u) to set.adj_start.(u + 1) - 1 do
        let v = set.adj.(k) in
        let alt = du +. set.adj_w.(k) in
        if alt < sc.tent.(v) then begin
          sc.tent.(v) <- alt;
          (* only the source has no first hop *)
          sc.first.(v) <- (if first_u < 0 then v else first_u);
          sc.depth.(v) <- depth_v;
          sc.up.(v) <- set.rev.(k);
          let slot = sc.heap_size in
          sc.heap_d.(slot) <- alt;
          sc.heap_i.(slot) <- v;
          sc.heap_size <- slot + 1;
          sift_up sc slot
        end
      done
    end
  done

(* Dijkstra from position [src] over [set], into [sc], until position
   [stop] has settled ([-1]: the whole set).  Nodes settle smallest
   distance first, ties to the lowest position, and relaxation uses a
   strict [<] — the order and tie rule of a scan for the minimum, so the
   answers do not depend on the frontier structure.  A settled node's
   entries are final: no later relaxation improves on them, so stopping
   at [stop] gives its entries bit for bit as a full solve would, and
   [advance] resumes the loop where it stopped.  The one loop behind the
   backbone's block and every on-demand stub-domain answer. *)
let settle sc set ~src ~stop =
  let s = Array.length set.members in
  Array.fill sc.tent 0 s infinity;
  Array.fill sc.settled 0 s false;
  sc.tent.(src) <- 0.0;
  sc.first.(src) <- -1;
  sc.depth.(src) <- 0;
  sc.up.(src) <- -1;
  sc.heap_d.(0) <- 0.0;
  sc.heap_i.(0) <- src;
  sc.heap_size <- 1;
  sc.count <- 0;
  advance sc set ~stop

(* --- all-pairs blocks --- *)

(* All-pairs shortest paths over the subgraph induced by [members]
   (neighbours outside the set are ignored): a solve run to the end
   from each source, copied into its row of the block.
   O(s (s + e) log s) per set. *)
let restricted_all_pairs graph ~members ~index_of ~in_set =
  let s = Array.length members in
  if s > max_block_members then
    invalid_arg
      (Printf.sprintf "Routing.create: a member set of %d nodes (at most %d)" s
         max_block_members);
  let slots = Array.fold_left (fun acc u -> acc + Graph.degree graph u) 0 members in
  let set =
    subgraph graph ~members ~index_of ~in_set
      ~outside:(fun _ _ _ -> ())
      ~buf_adj:(Array.make slots 0) ~buf_w:(Array.make slots 0.0)
  in
  let sc = scratch ~nodes:s ~edges:(edge_count set) in
  let dist = Array.make (s * s) infinity in
  let next = Bytes.make (2 * s * s) '\255' in
  let hops = Bytes.make (2 * s * s) '\000' in
  for si = 0 to s - 1 do
    settle sc set ~src:si ~stop:(-1);
    let row = si * s in
    for j = 0 to s - 1 do
      if sc.tent.(j) < infinity then begin
        dist.(row + j) <- sc.tent.(j);
        if sc.first.(j) >= 0 then Bytes.set_uint16_ne next (2 * (row + j)) sc.first.(j);
        Bytes.set_uint16_ne hops (2 * (row + j)) sc.depth.(j)
      end
    done
  done;
  { set; dist; next; hops }

let[@inline] block_entry b i j = (i * Array.length b.set.members) + j
let block_dist b i j = b.dist.(block_entry b i j)
let block_hops b i j = Bytes.get_uint16_ne b.hops (2 * block_entry b i j)

let block_next b i j =
  let x = Bytes.get_uint16_ne b.next (2 * block_entry b i j) in
  if x = no_hop then -1 else b.set.members.(x)

(* --- link-state construction --- *)

(* Stub domains are the connected components of the stub-only subgraph,
   numbered in the order of their lowest node.  Returns [domain_of] and
   the domain count; the search keeps its frontier in an int array. *)
let stub_components graph transit =
  let n = Array.length transit in
  let domain_of = Array.make n (-1) in
  let stack = Array.make n 0 and top = ref 0 in
  let rec push d = function
    | [] -> ()
    | (w, _) :: rest ->
      if (not transit.(w)) && domain_of.(w) < 0 then begin
        domain_of.(w) <- d;
        stack.(!top) <- w;
        incr top
      end;
      push d rest
  in
  let count = ref 0 in
  for u = 0 to n - 1 do
    if (not transit.(u)) && domain_of.(u) < 0 then begin
      let d = !count in
      incr count;
      domain_of.(u) <- d;
      stack.(0) <- u;
      top := 1;
      while !top > 0 do
        decr top;
        push d (Graph.neighbors graph stack.(!top))
      done
    end
  done;
  (domain_of, !count)

(* Each domain's members in ascending node order, bucketed by one scan
   of the nodes (no sort), and each node's position among them. *)
let domain_members domain_of domains index =
  let size = Array.make domains 0 in
  Array.iter (fun d -> if d >= 0 then size.(d) <- size.(d) + 1) domain_of;
  let members = Array.map (fun s -> Array.make s 0) size in
  Array.fill size 0 domains 0;
  Array.iteri
    (fun u d ->
      if d >= 0 then begin
        members.(d).(size.(d)) <- u;
        index.(u) <- size.(d);
        size.(d) <- size.(d) + 1
      end)
    domain_of;
  members

(* The smallest power of two no less than [x > 0]. *)
let power_of_two x =
  let p = ref 1 in
  while !p < x do
    p := 2 * !p
  done;
  !p

let create graph =
  let n = Graph.node_count graph in
  let transit = Array.init n (Graph.is_transit graph) in
  let domain_of, domains = stub_components graph transit in
  let index = Array.make n 0 in
  let dom_members = domain_members domain_of domains index in
  let t_nodes =
    let acc = ref [] in
    for u = n - 1 downto 0 do
      if transit.(u) then acc := u :: !acc
    done;
    Array.of_list !acc
  in
  Array.iteri (fun i u -> index.(u) <- i) t_nodes;
  let index_of v = index.(v) in
  (* access links: each domain must touch the backbone through at most
     one stub-to-transit edge, the structural invariant the whole
     decomposition rests on; they are met in the pass that builds the
     domain's rows *)
  let dom_gateway = Array.make domains (-1) in
  let dom_attach = Array.make domains (-1) in
  let dom_access = Array.make domains infinity in
  let slots = 2 * Graph.edge_count graph in
  let buf_adj = Array.make slots 0 and buf_w = Array.make slots 0.0 in
  let subgraphs =
    Array.mapi
      (fun d members ->
        subgraph graph ~members ~index_of ~buf_adj ~buf_w
          ~in_set:(fun v -> not transit.(v))
          ~outside:(fun u v w ->
            if dom_gateway.(d) >= 0 then
              invalid_arg
                (Printf.sprintf
                   "Routing.create: stub domain %d has several access links (not \
                    transit-stub shaped)"
                   d);
            dom_gateway.(d) <- u;
            dom_attach.(d) <- v;
            dom_access.(d) <- w))
      dom_members
  in
  let widest f = Array.fold_left (fun acc set -> max acc (f set)) 0 subgraphs in
  {
    graph;
    domain_of;
    index;
    dom_gateway;
    dom_attach;
    dom_access;
    domains = subgraphs;
    backbone =
      restricted_all_pairs graph ~members:t_nodes ~index_of ~in_set:(fun v -> transit.(v));
    leg_dist = Array.make n infinity;
    leg_hops = Array.make n (-1);
    leg_next = Array.make n (-1);
    legs_rooted = Array.make domains false;
    oracle = Array.make domains Unplanted;
    work =
      scratch
        ~nodes:(widest (fun set -> Array.length set.members))
        ~edges:(widest edge_count);
    warm_dom = -1;
    warm_src = -1;
    walk = Array.make (widest (fun set -> Array.length set.members)) 0;
    memo =
      {
        start = power_of_two (max 256 (2 * (n - Array.length t_nodes)));
        keys = [||];
        m_dist = [||];
        m_route = [||];
        m_count = 0;
      };
    solves = 0;
  }

(* --- on-demand stub-domain answers --- *)

(* Multiplicative mixing spreads the pair keys over the table; capacity
   is a power of two so the mask is the modulus. *)
let[@inline] mix key cap =
  let h = key * 0x9e3779b97f4a7c1 in
  (h lxor (h lsr 29)) land (cap - 1)

(* The slot holding [key], or the empty slot where it would go. *)
let memo_slot m key =
  let keys = m.keys in
  let cap = Array.length keys in
  let i = ref (mix key cap) in
  while keys.(!i) <> key && keys.(!i) <> empty_key do
    i := (!i + 1) land (cap - 1)
  done;
  !i

(* Re-allocates the table at [cap] slots, re-inserting each entry in a
   plain loop. *)
let memo_resize m cap =
  let old_keys = m.keys and old_dist = m.m_dist and old_route = m.m_route in
  m.keys <- Array.make cap empty_key;
  m.m_dist <- Array.make cap 0.0;
  m.m_route <- Array.make cap 0;
  for i = 0 to Array.length old_keys - 1 do
    let key = old_keys.(i) in
    if key <> empty_key then begin
      let j = memo_slot m key in
      m.keys.(j) <- key;
      m.m_dist.(j) <- old_dist.(i);
      m.m_route.(j) <- old_route.(i)
    end
  done

(* Position [src]'s solve in domain [d] until position [stop] has
   settled: resumed when [work] still holds [src]'s solve, else a new
   one. *)
let solve ls d ~src ~stop =
  if ls.warm_dom = d && ls.warm_src = src then advance ls.work ls.domains.(d) ~stop
  else begin
    ls.solves <- ls.solves + 1;
    settle ls.work ls.domains.(d) ~src ~stop;
    ls.warm_dom <- d;
    ls.warm_src <- src
  end

(* A full solve from a tree's root, for the caller to read and mark. *)
let solve_tree ls d ~src =
  ls.solves <- ls.solves + 1;
  ls.warm_src <- -1;
  settle ls.work ls.domains.(d) ~src ~stop:(-1)

(* After a full solve of a connected set, [settled] is all true; this
   leaves it true only at the clear nodes: those that, with every node
   above them up to the root, have no edge off their tree edge whose
   reduced cost [w + D(y) - D(x)] is within a rounding margin of zero.
   Any other path from a node up to the root exceeds the tree path by a
   sum of reduced costs, the first of them at the first node where the
   two part, so a margin far above the float error of the sums rules out
   every tie and near-tie at a clear node.  One pass in settle order,
   which reaches a node after its parent. *)
let mark_clear sc set =
  for j = 0 to sc.count - 1 do
    let x = sc.order.(j) in
    let dx = sc.tent.(x) and up = sc.up.(x) in
    let clear = ref (up < 0 || sc.settled.(set.adj.(up))) in
    for k = set.adj_start.(x) to set.adj_start.(x + 1) - 1 do
      if !clear && k <> up then begin
        let w = set.adj_w.(k) in
        if w +. sc.tent.(set.adj.(k)) -. dx <= 1e-9 *. (dx +. w) then clear := false
      end
    done;
    sc.settled.(x) <- !clear
  done

(* All of domain [d]'s legs from the gateway solve [work] holds ([gw] its
   root).  A host's leg is its own solve's distance to the gateway: the
   left fold, from the host up, of the latencies along its path.  When
   that path is the host's path up the gateway's tree, the fold along
   the tree gives the same float bit for bit, the same first hop and the
   same hop count.  It is when the host is clear ([mark_clear]).  Other
   hosts (equal-cost paths, as in unit-weight graphs) are left for their
   own solve on first use. *)
let root_legs ls d gw =
  let set = ls.domains.(d) and sc = ls.work in
  mark_clear sc set;
  for u = 0 to Array.length set.members - 1 do
    let node = set.members.(u) in
    if ls.leg_hops.(node) < 0 && sc.settled.(u) then begin
      let acc = ref 0.0 and x = ref u in
      while !x <> gw do
        let k = sc.up.(!x) in
        acc := !acc +. set.adj_w.(k);
        x := set.adj.(k)
      done;
      ls.leg_dist.(node) <- !acc;
      ls.leg_hops.(node) <- sc.depth.(u);
      ls.leg_next.(node) <- (if u = gw then -1 else set.members.(set.adj.(sc.up.(u))))
    end
  done

(* --- in-domain answers from the trees --- *)

let[@inline] tree_entry tr r i = (r * tr.size) + i
let[@inline] tree_dist tr r i = tr.t_dist.(tree_entry tr (r - 1) i)
let[@inline] tree_up tr r i = Bytes.get_uint16_ne tr.t_up (2 * tree_entry tr r i)
let[@inline] tree_depth tr r i = Bytes.get_uint16_ne tr.t_depth (2 * tree_entry tr r i)
let[@inline] path_clear tr r i = Bytes.get tr.clear (tree_entry tr r i) = '\001'
let[@inline] root_bit tr i = 1 lsl Char.code (Bytes.get tr.root_of i)

(* [i]'s predecessor in tree 0, -1 at its root *)
let[@inline] parent0 tr set i = if i = tr.roots.(0) then -1 else set.adj.(tree_up tr 0 i)

(* [walk]'s flags, above the root bits *)
let off_tree = 1 lsl 20 (* an edge of the path is not in tree 0 *)
let not_simple = 1 lsl 21 (* the path through tree [r]'s root repeats an edge *)

(* Tree [r]'s parent-edge slots and hop counts from the full solve
   [work] holds, as [settle] recorded them. *)
let record_tree tr sc r =
  for i = 0 to tr.size - 1 do
    let e = 2 * tree_entry tr r i in
    if sc.up.(i) >= 0 then Bytes.set_uint16_ne tr.t_up e sc.up.(i);
    Bytes.set_uint16_ne tr.t_depth e sc.depth.(i)
  done

(* Tree 0 from the gateway solve [work] holds ([gw] its root), with the
   roots past it: the endpoints of the edges off tree 0, in order of
   first appearance.  [Per_pair] when there are more than [max_roots]. *)
let sprout set sc gw =
  let s = Array.length set.members in
  let roots = Array.make (max_roots + 2) gw and count = ref 1 in
  let add x =
    let known = ref false in
    for r = 1 to !count - 1 do
      if roots.(r) = x then known := true
    done;
    if not (!known || !count > max_roots + 1) then begin
      roots.(!count) <- x;
      incr count
    end
  in
  for a = 0 to s - 1 do
    for k = set.adj_start.(a) to set.adj_start.(a + 1) - 1 do
      let b = set.adj.(k) in
      if a < b && sc.up.(a) <> k && sc.up.(b) <> set.rev.(k) then begin
        add a;
        add b
      end
    done
  done;
  if !count - 1 > max_roots then Per_pair
  else begin
    let trees = !count in
    let tr =
      {
        size = s;
        roots = Array.sub roots 0 trees;
        root_of = Bytes.make s '\000';
        t_dist = Array.make ((trees - 1) * s) 0.0;
        t_up = Bytes.make (2 * trees * s) '\255';
        t_depth = Bytes.make (2 * trees * s) '\000';
        clear = Bytes.make (trees * s) '\000';
      }
    in
    for r = 1 to trees - 1 do
      Bytes.set tr.root_of roots.(r) (Char.chr r)
    done;
    record_tree tr sc 0;
    Rooted tr
  end

(* Domain [d]'s one solve from its gateway (from position 0 in a domain
   with no access link), run by the first of its first leg and its first
   in-domain pair: it roots the legs, and tree 0 while the oracle is
   unplanted and the domain's edge slots fit two bytes. *)
let root ls d =
  let set = ls.domains.(d) and gw_node = ls.dom_gateway.(d) in
  let gw = if gw_node < 0 then 0 else ls.index.(gw_node) in
  solve_tree ls d ~src:gw;
  (match ls.oracle.(d) with
   | Unplanted when edge_count set < no_hop -> ls.oracle.(d) <- sprout set ls.work gw
   | Unplanted | Rooted _ | Per_pair | Trees _ -> ());
  if gw_node >= 0 then begin
    ls.legs_rooted.(d) <- true;
    root_legs ls d gw
  end

(* Host [u]'s leg to the gateway of its domain [du], solved if new:
   from the domain's gateway tree, or else by [u]'s own solve. *)
let ensure_leg ls u du =
  if ls.leg_hops.(u) < 0 then begin
    if not ls.legs_rooted.(du) then root ls du;
    if ls.leg_hops.(u) < 0 then begin
      let sc = ls.work and j = ls.index.(ls.dom_gateway.(du)) in
      solve ls du ~src:ls.index.(u) ~stop:j;
      ls.leg_dist.(u) <- sc.tent.(j);
      ls.leg_hops.(u) <- sc.depth.(j);
      ls.leg_next.(u) <- (if sc.first.(j) < 0 then -1 else ls.domains.(du).members.(sc.first.(j)))
    end
  end

(* The trees past tree 0: a full solve from each root. *)
let plant ls d tr =
  let set = ls.domains.(d) and sc = ls.work in
  for r = 1 to Array.length tr.roots - 1 do
    solve_tree ls d ~src:tr.roots.(r);
    record_tree tr sc r;
    Array.blit sc.tent 0 tr.t_dist (tree_entry tr (r - 1) 0) tr.size;
    mark_clear sc set;
    for i = 0 to tr.size - 1 do
      Bytes.set tr.clear (tree_entry tr r i) (if sc.settled.(i) then '\001' else '\002')
    done
  done

(* Domain [d]'s oracle, planted on its first in-domain pair not ending
   at the gateway: its gateway solve unless a leg ran it, then the
   trees past tree 0.  [Per_pair] without a solve when the domain has
   more edge slots than two bytes can number. *)
let oracle ls d =
  (match ls.oracle.(d) with
   | Unplanted ->
     if edge_count ls.domains.(d) >= no_hop then ls.oracle.(d) <- Per_pair else root ls d
   | Rooted _ | Per_pair | Trees _ -> ());
  match ls.oracle.(d) with
  | Rooted tr ->
    plant ls d tr;
    let o = Trees tr in
    ls.oracle.(d) <- o;
    o
  | o -> o

(* The path [iu -> iv] in tree [r], up from [iu] to the two positions'
   lowest common ancestor and down to [iv].  Leaves in the work arrays at
   [iv] what a solve from [iu] leaves there when this path is its tree
   path: the left fold of the latencies from [iu], the first hop and the
   hop count.  Returns the [root_bit]s of the nodes passed, with
   [off_tree] when [check_tree0] and an edge is not in tree 0, and
   [not_simple] when [r > 0] and the ancestor is not tree [r]'s root:
   the path through the root then doubles back.  The way down reads
   each edge's latency from the lower node's row: [Graph] stores one
   latency for both directions. *)
let walk ls tr set r iu iv ~check_tree0 =
  let sc = ls.work and buf = ls.walk in
  let acc = ref 0.0 and n = ref 0 and m = ref 0 in
  let a = ref iu and b = ref iv in
  let da = ref (tree_depth tr r iu) and db = ref (tree_depth tr r iv) in
  while !a <> !b do
    (* the deeper side climbs: [a]'s steps are the path's from [iu], in
       order; [b]'s are stacked in [buf] and folded below *)
    let x = if !da >= !db then !a else !b in
    let k = tree_up tr r x in
    let p = set.adj.(k) in
    if check_tree0 && parent0 tr set x <> p && parent0 tr set p <> x then m := !m lor off_tree;
    m := !m lor root_bit tr x;
    if !da >= !db then begin
      acc := !acc +. set.adj_w.(k);
      decr da;
      a := p
    end
    else begin
      buf.(!n) <- x;
      incr n;
      decr db;
      b := p
    end
  done;
  let hops = tree_depth tr r iu - !da in
  let top = !a in
  for j = !n - 1 downto 0 do
    acc := !acc +. set.adj_w.(tree_up tr r buf.(j))
  done;
  sc.tent.(iv) <- !acc;
  sc.first.(iv) <- (if iu <> top then set.adj.(tree_up tr r iu) else buf.(!n - 1));
  sc.depth.(iv) <- hops + !n;
  !m lor root_bit tr top lor if r > 0 && top <> tr.roots.(r) then not_simple else 0

(* Pair [iu -> iv] (distinct positions) from the trees, left in the work
   arrays at [iv] as [walk] leaves it: the tree whose path it is, or -1
   when the trees cannot vouch for it.  The candidates are tree 0's path
   and, per root [x], the shortest path through [x], of length
   [d_x(iu) + d_x(iv)]; every simple path is one of them or longer, so
   the shortest is the best candidate's.  A solve from [iu] settles
   exactly that path when every other path is longer by more than the
   float error of the sums, and only then is the answer taken.  Another
   path can come within a margin only as tree 0's path or through a root
   whose candidate is within the margin of the best.  So it is taken
   when the best path is simple, tree 0's path is either outside the
   margin or the best path itself, and each root within the margin lies
   on the best path with both its tree paths, to [iu] and to [iv], clear
   of near-ties.  The walk folds the latencies from [iu], so the
   distance, first hop and hop count are the solve's bit for bit.  The
   work arrays no longer hold a resumable solve. *)
let tree_answer ls tr set iu iv =
  ls.warm_src <- -1;
  let mask = walk ls tr set 0 iu iv ~check_tree0:false in
  let c0 = ls.work.tent.(iv) in
  let k = Array.length tr.roots - 1 in
  let best = ref 0 and best_c = ref c0 in
  for r = 1 to k do
    let c = tree_dist tr r iu +. tree_dist tr r iv in
    if c < !best_c then begin
      best := r;
      best_c := c
    end
  done;
  let r = !best and limit = !best_c +. (1e-9 *. !best_c) in
  let mask = if r = 0 then mask else walk ls tr set r iu iv ~check_tree0:(c0 <= limit) in
  let ok = ref (mask land (off_tree lor not_simple) = 0) in
  for x = 1 to k do
    if !ok && tree_dist tr x iu +. tree_dist tr x iv <= limit then
      ok := mask land (1 lsl x) <> 0 && path_clear tr x iu && path_clear tr x iv
  done;
  if !ok then r else -1

(* The memo slot of in-domain pair [u -> v] ([u <> v], both in [d]),
   answered and stored if new: from the domain's trees, or else by [u]'s
   solve. *)
let pair_slot ls d u v =
  let m = ls.memo in
  let key = (u * Array.length ls.index) + v in
  let slot = if m.m_count = 0 then -1 else memo_slot m key in
  if slot >= 0 && m.keys.(slot) = key then slot
  else begin
    let iu = ls.index.(u) and j = ls.index.(v) in
    (match oracle ls d with
     | Trees tr when tree_answer ls tr ls.domains.(d) iu j >= 0 -> ()
     | Unplanted | Rooted _ | Per_pair | Trees _ -> solve ls d ~src:iu ~stop:j);
    if 4 * (m.m_count + 1) > 3 * Array.length m.keys then
      memo_resize m (if m.m_count = 0 then m.start else 2 * Array.length m.keys);
    let slot = memo_slot m key and sc = ls.work in
    m.keys.(slot) <- key;
    m.m_dist.(slot) <- sc.tent.(j);
    m.m_route.(slot) <- (ls.domains.(d).members.(sc.first.(j)) lsl route_bits) lor sc.depth.(j);
    m.m_count <- m.m_count + 1;
    slot
  end

(* --- link-state queries --- *)

(* In-domain answers between two distinct members of domain [d]: a pair
   ending at the gateway is that host's leg. *)
let dom_dist ls d u v =
  if v = ls.dom_gateway.(d) then begin
    ensure_leg ls u d;
    ls.leg_dist.(u)
  end
  else ls.memo.m_dist.(pair_slot ls d u v)

let dom_hops ls d u v =
  if v = ls.dom_gateway.(d) then begin
    ensure_leg ls u d;
    ls.leg_hops.(u)
  end
  else ls.memo.m_route.(pair_slot ls d u v) land hops_mask

let dom_next ls d u v =
  if v = ls.dom_gateway.(d) then begin
    ensure_leg ls u d;
    ls.leg_next.(u)
  end
  else ls.memo.m_route.(pair_slot ls d u v) lsr route_bits

(* Backbone entries between two transit nodes. *)
let[@inline] bb_dist ls u v = block_dist ls.backbone ls.index.(u) ls.index.(v)
let[@inline] bb_hops ls u v = block_hops ls.backbone ls.index.(u) ls.index.(v)
let bb_next ls u v = block_next ls.backbone ls.index.(u) ls.index.(v)

(* The climb from node [u] (in stub domain [du]; -1 for a transit node)
   up to its backbone attachment point, read as separate scalars so the
   per-message queries allocate no tuple.  [ls_attach] is [u] itself for
   a transit node and -1 when the domain has no access link; the climb's
   latency and hop count are meaningful only when the attachment
   exists. *)
let ls_attach ls u du =
  if du < 0 then u else if ls.dom_gateway.(du) < 0 then -1 else ls.dom_attach.(du)

let ls_up_dist ls u du =
  if du < 0 then 0.0
  else begin
    ensure_leg ls u du;
    ls.leg_dist.(u) +. ls.dom_access.(du)
  end

let ls_up_hops ls u du =
  if du < 0 then 0
  else begin
    ensure_leg ls u du;
    ls.leg_hops.(u) + 1
  end

let distance ls u v =
  if u = v then 0.0
  else begin
    let du = ls.domain_of.(u) and dv = ls.domain_of.(v) in
    if du >= 0 && du = dv then dom_dist ls du u v
    else if du < 0 && dv < 0 then bb_dist ls u v
    else begin
      let au = ls_attach ls u du and av = ls_attach ls v dv in
      if au < 0 || av < 0 then infinity
      else ls_up_dist ls u du +. bb_dist ls au av +. ls_up_dist ls v dv
    end
  end

(* 0 when [v] is unreachable from [u]: callers check [distance]
   first *)
let reachable_hops ls u v =
  if u = v then 0
  else begin
    let du = ls.domain_of.(u) and dv = ls.domain_of.(v) in
    if du >= 0 && du = dv then dom_hops ls du u v
    else if du < 0 && dv < 0 then bb_hops ls u v
    else begin
      let au = ls_attach ls u du and av = ls_attach ls v dv in
      if au < 0 || av < 0 then 0
      else ls_up_hops ls u du + bb_hops ls au av + ls_up_hops ls v dv
    end
  end

(* First hop from [u] toward [v]; -1 when unreachable.  Mirrors the
   distance decomposition: head for the gateway, cross the backbone to
   the destination domain's attachment, drop down its access link,
   finish inside the domain. *)
let first_hop ls u v =
  let du = ls.domain_of.(u) and dv = ls.domain_of.(v) in
  if u = v then u
  else if du >= 0 && du = dv then dom_next ls du u v
  else if du >= 0 then begin
    let gw = ls.dom_gateway.(du) in
    if gw < 0 then -1
    else if u = gw then ls.dom_attach.(du)
    else dom_next ls du u gw
  end
  else if dv < 0 then bb_next ls u v
  else begin
    let a = ls.dom_attach.(dv) in
    if a < 0 then -1
    else if u = a then ls.dom_gateway.(dv)
    else bb_next ls u a
  end

(* The nodes of tree [r]'s path [iu -> iv] (positions), [u] first: up
   from [iu] to the lowest common ancestor, then down to [iv]. *)
let tree_nodes ls tr set r iu iv =
  let ups = ref [] and n = ref 0 and a = ref iu and b = ref iv in
  let da = ref (tree_depth tr r iu) and db = ref (tree_depth tr r iv) in
  while !a <> !b do
    if !da >= !db then begin
      ups := set.members.(!a) :: !ups;
      a := set.adj.(tree_up tr r !a);
      decr da
    end
    else begin
      ls.walk.(!n) <- !b;
      incr n;
      b := set.adj.(tree_up tr r !b);
      decr db
    end
  done;
  let down = ref [] in
  for j = 0 to !n - 1 do
    down := set.members.(ls.walk.(j)) :: !down
  done;
  List.rev_append !ups (set.members.(!a) :: !down)

(* The path [u -> v] inside domain [d] ([u <> v], [v] not the gateway)
   as the chain of first hops from [u] gives it, read in one go: off
   [u]'s solve while the work arrays still hold it (the chain is that
   solve's tree path), else off the trees when they vouch for the pair
   (the chain is then the one path within the margin), else first hop
   by first hop. *)
let dom_path ls d u v =
  let set = ls.domains.(d) and sc = ls.work in
  let iu = ls.index.(u) and iv = ls.index.(v) in
  let hop_by_hop () =
    let rec collect node acc =
      if node = v then List.rev (v :: acc) else collect (dom_next ls d node v) (node :: acc)
    in
    collect u []
  in
  if ls.warm_dom = d && ls.warm_src = iu then begin
    advance sc set ~stop:iv;
    let acc = ref [ v ] and x = ref iv in
    while !x <> iu do
      x := set.adj.(sc.up.(!x));
      acc := set.members.(!x) :: !acc
    done;
    !acc
  end
  else
    match oracle ls d with
    | Trees tr ->
      let r = tree_answer ls tr set iu iv in
      if r >= 0 then tree_nodes ls tr set r iu iv else hop_by_hop ()
    | Unplanted | Rooted _ | Per_pair -> hop_by_hop ()

(* Hop by hop to the destination's domain, then one in-domain read. *)
let path ls u v =
  if distance ls u v = infinity then raise Not_found;
  let dv = ls.domain_of.(v) in
  let rec collect node acc =
    if node = v then List.rev (v :: acc)
    else if dv >= 0 && ls.domain_of.(node) = dv && v <> ls.dom_gateway.(dv) then
      List.rev_append acc (dom_path ls dv node v)
    else collect (first_hop ls node v) (node :: acc)
  in
  collect u []

(* --- the rest of the query surface --- *)

let next_hop t u v =
  if u = v then u
  else if distance t u v = infinity then raise Not_found
  else first_hop t u v

let hop_count t u v =
  if u <> v && distance t u v = infinity then raise Not_found;
  reachable_hops t u v

let graph t = t.graph

let solves t = t.solves

type decomposition = {
  domain_of : int array;
  members : int array array;
  gateway : int array;
  attach : int array;
  access : float array;
}

let decomposition (t : t) : decomposition =
  {
    domain_of = Array.copy t.domain_of;
    members = Array.map (fun (set : subgraph) -> Array.copy set.members) t.domains;
    gateway = Array.copy t.dom_gateway;
    attach = Array.copy t.dom_attach;
    access = Array.copy t.dom_access;
  }
