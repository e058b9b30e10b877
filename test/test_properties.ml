(* Property-based tests (QCheck, registered as alcotest cases).

   These pin down the algebraic laws and structural invariants the
   protocols rely on, over randomized inputs: ring-interval algebra,
   event-queue ordering, summary-statistics bounds, and hybrid-system
   invariants under random churn scripts, the pure ring (p_s 0) among
   them. *)

module Id_space = P2p_hashspace.Id_space
module Event_queue = P2p_sim.Event_queue
module Summary = P2p_stats.Summary
module Histogram = P2p_stats.Histogram
module H = Hybrid_p2p.Hybrid
module Peer = Hybrid_p2p.Peer

let id_gen = QCheck.Gen.int_bound (Id_space.size - 1)

let id_arb = QCheck.make ~print:string_of_int id_gen

let triple_arb = QCheck.triple id_arb id_arb id_arb

(* --- Id_space algebra --- *)

let prop_between_distance =
  QCheck.Test.make ~name:"between x (l,r) iff 0 < d(l,x) < d(l,r) (l<>r)" ~count:2000
    triple_arb (fun (x, l, r) ->
      QCheck.assume (l <> r);
      let lhs = Id_space.between x ~left:l ~right:r in
      let rhs =
        let dx = Id_space.distance ~src:l ~dst:x in
        let dr = Id_space.distance ~src:l ~dst:r in
        dx > 0 && dx < dr
      in
      lhs = rhs)

let prop_between_incl_right =
  QCheck.Test.make ~name:"between_incl_right = between or x=r" ~count:2000 triple_arb
    (fun (x, l, r) ->
      Id_space.between_incl_right x ~left:l ~right:r
      = (x = r || Id_space.between x ~left:l ~right:r))

let prop_segments_partition =
  (* the half-open segments of a sorted id list partition the whole space *)
  QCheck.Test.make ~name:"ring segments partition the id space" ~count:200
    (QCheck.pair id_arb (QCheck.list_of_size (QCheck.Gen.int_range 1 10) id_arb))
    (fun (x, ids) ->
      let ids = List.sort_uniq compare ids in
      let n = List.length ids in
      QCheck.assume (n >= 1);
      let arr = Array.of_list ids in
      let owners = ref 0 in
      for i = 0 to n - 1 do
        let left = arr.((i + n - 1) mod n) and right = arr.(i) in
        if
          (n = 1 && Id_space.between_incl_right x ~left:right ~right)
          || (n > 1 && Id_space.between_incl_right x ~left ~right)
        then incr owners
      done;
      !owners = 1)

let prop_distance_triangle =
  QCheck.Test.make ~name:"clockwise distances add modulo size" ~count:2000 triple_arb
    (fun (a, b, c) ->
      let ab = Id_space.distance ~src:a ~dst:b in
      let bc = Id_space.distance ~src:b ~dst:c in
      let ac = Id_space.distance ~src:a ~dst:c in
      (ab + bc) mod Id_space.size = ac)

let prop_midpoint_interior =
  QCheck.Test.make ~name:"midpoint lies strictly inside" ~count:2000
    (QCheck.pair id_arb id_arb) (fun (l, r) ->
      match Id_space.midpoint ~left:l ~right:r with
      | Some m -> Id_space.between m ~left:l ~right:r
      | None -> l <> r && Id_space.distance ~src:l ~dst:r <= 1)

(* --- Event queue ordering --- *)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order" ~count:200
    (QCheck.list (QCheck.float_bound_inclusive 1000.0))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> ignore (Event_queue.add q ~time:t () : Event_queue.handle)) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain neg_infinity)

(* --- Summary bounds --- *)

let prop_summary_bounds =
  QCheck.Test.make ~name:"mean and percentiles within [min, max]" ~count:500
    (QCheck.list_of_size (QCheck.Gen.int_range 1 50) (QCheck.float_bound_inclusive 1e6))
    (fun xs ->
      let s = Summary.create () in
      Summary.add_all s xs;
      let lo = Summary.min s and hi = Summary.max s in
      Summary.mean s >= lo -. 1e-6
      && Summary.mean s <= hi +. 1e-6
      && Summary.median s >= lo
      && Summary.median s <= hi
      && Summary.percentile s 95.0 >= Summary.median s -. 1e-9)

let prop_histogram_total =
  QCheck.Test.make ~name:"histogram total = sum of counts; rebin preserves" ~count:500
    (QCheck.list (QCheck.int_bound 200))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.observe h) xs;
      let sum_assoc = List.fold_left (fun acc (_, c) -> acc + c) 0 (Histogram.to_assoc h) in
      let sum_rebin =
        List.fold_left (fun acc (_, c) -> acc + c) 0 (Histogram.rebin h ~width:7)
      in
      sum_assoc = List.length xs && sum_rebin = List.length xs)

(* --- Hybrid system invariants under churn scripts --- *)

type churn_op = Op_join_t | Op_join_s | Op_leave | Op_crash

let churn_op_gen =
  QCheck.Gen.frequency
    [ (3, QCheck.Gen.return Op_join_t); (5, QCheck.Gen.return Op_join_s);
      (2, QCheck.Gen.return Op_leave); (1, QCheck.Gen.return Op_crash) ]

let churn_script_arb =
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed=%d ops=[%s]" seed
        (String.concat ";"
           (List.map
              (function
                | Op_join_t -> "jt" | Op_join_s -> "js" | Op_leave -> "l" | Op_crash -> "c")
              ops)))
    (QCheck.Gen.pair QCheck.Gen.small_int
       (QCheck.Gen.list_size (QCheck.Gen.int_range 5 40) churn_op_gen))

let prop_hybrid_churn_invariants =
  QCheck.Test.make ~name:"hybrid invariants after random churn script" ~count:25
    churn_script_arb (fun (seed, ops) ->
      let h = H.create_star ~seed ~peers:200 () in
      let next_host = ref 0 in
      let crashed = ref false in
      List.iter
        (fun op ->
          (match op with
           | Op_join_t when !next_host < 200 ->
             ignore (H.join h ~host:!next_host ~role:Peer.T_peer () : Peer.t);
             incr next_host
           | Op_join_s when !next_host < 200 ->
             let role = if H.peer_count h = 0 then Peer.T_peer else Peer.S_peer in
             ignore (H.join h ~host:!next_host ~role () : Peer.t);
             incr next_host
           | Op_join_t | Op_join_s -> ()
           | Op_leave -> if H.peer_count h > 0 then H.leave h (H.random_peer h) ()
           | Op_crash ->
             if H.peer_count h > 1 then begin
               H.crash h (H.random_peer h);
               crashed := true
             end);
          H.run h)
        ops;
      if !crashed then H.repair h;
      H.run h;
      Result.is_ok (Helpers.final_invariants h))

(* [all_t] makes every peer a t-peer: the pure ring (p_s 0) the hybrid
   degenerates to. *)
let prop_hybrid_graceful_conserves_data =
  QCheck.Test.make ~name:"hybrid graceful churn conserves data" ~count:15
    (QCheck.triple QCheck.small_int QCheck.bool
       (QCheck.list_of_size (QCheck.Gen.int_range 3 15) QCheck.bool))
    (fun (seed, all_t, script) ->
      let h = H.create_star ~seed ~peers:200 () in
      ignore (H.grow h ~count:40 ~s_fraction:(if all_t then 0.0 else 0.6) : Peer.t array);
      List.iteri
        (fun i key ->
          ignore i;
          H.insert h ~from:(H.random_peer h) ~key ~value:"v" ())
        (List.init 30 (fun i -> Printf.sprintf "pk%d" i));
      H.run h;
      let expected = H.total_items h in
      let role = if all_t then Some Peer.T_peer else None in
      let next_host = ref 40 in
      List.iter
        (fun is_join ->
          if is_join && !next_host < 200 then begin
            ignore (H.join h ~host:!next_host ?role () : Peer.t);
            incr next_host
          end
          else if H.peer_count h > 1 then H.leave h (H.random_peer h) ();
          H.run h)
        script;
      H.total_items h = expected)

let prop_hybrid_degree_bound =
  QCheck.Test.make ~name:"tree degree never exceeds delta" ~count:10
    (QCheck.pair QCheck.small_int (QCheck.make (QCheck.Gen.int_range 2 6)))
    (fun (seed, delta) ->
      let config = { Hybrid_p2p.Config.default with Hybrid_p2p.Config.delta } in
      let h = H.create_star ~seed ~peers:150 ~config () in
      ignore (H.grow h ~count:100 ~s_fraction:0.85 : Peer.t array);
      List.for_all (fun p -> Peer.tree_degree p <= delta) (H.peers h))

(* pinned randomness: property runs are reproducible across invocations *)
let suite =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]))
    [
      prop_between_distance;
      prop_between_incl_right;
      prop_segments_partition;
      prop_distance_triangle;
      prop_midpoint_interior;
      prop_event_queue_sorted;
      prop_summary_bounds;
      prop_histogram_total;
      prop_hybrid_churn_invariants;
      prop_hybrid_graceful_conserves_data;
      prop_hybrid_degree_bound;
    ]
