(* The reference router the tests hold [Routing] to: exact per-source
   Dijkstra over the whole graph, blind to transit marks, each source's
   shortest-path tree cached once computed (O(n²) memory once every
   node has been a source).  Its queries mirror [Routing]'s. *)

module Graph = P2p_topology.Graph

type source_result = { dist : float array; prev : int array }

type t = { graph : Graph.t; cache : source_result option array }

let create graph = { graph; cache = Array.make (Graph.node_count graph) None }

(* A binary heap of (distance, node). *)
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

(* [infinity] when unreachable *)
let distance t u v = (source_result t u).dist.(v)

(* @raise Not_found when unreachable *)
let path t u v =
  let r = source_result t u in
  if r.dist.(v) = infinity then raise Not_found;
  let rec build acc node = if node = u then u :: acc else build (node :: acc) r.prev.(node) in
  build [] v

(* @raise Not_found when unreachable *)
let hop_count t u v = List.length (path t u v) - 1

(* [u] when [u = v]; @raise Not_found when unreachable *)
let next_hop t u v = match path t u v with _ :: next :: _ -> next | _ -> u
