module Rng = P2p_sim.Rng
module Metrics = P2p_net.Metrics

(* Walk from [at] down random branches until a peer with a free slot is
   found, then call [attach at_cp ~hops].  Every forward is a message.
   A hop may arrive at a peer that died while the request was in flight;
   the walk then restarts at the live t-peer now owning the tree's ring
   segment (the server re-resolving the assignment). *)
let rec walk w ?op ~at ~hops ~attach () =
  if not at.Peer.alive then begin
    match World.oracle_owner w at.Peer.p_id with
    | Some root when root.Peer.alive ->
      World.send_span w ?op ~tier:"s_network" ~phase:"tree_walk" ~src:at
        ~dst:root (fun () -> walk w ?op ~at:root ~hops:(hops + 1) ~attach ())
    | Some _ | None -> () (* no live t-peer left: the join is abandoned *)
  end
  else if Peer.has_free_slot w.World.config at || at.Peer.children = [] then
    attach ~cp:at ~hops
  else begin
    let live_children = List.filter (fun c -> c.Peer.alive) at.Peer.children in
    match live_children with
    | [] -> attach ~cp:at ~hops
    | _ ->
      let next = Rng.pick_list w.World.rng live_children in
      World.send_span w ?op ~tier:"s_network" ~phase:"tree_walk" ~src:at
        ~dst:next (fun () -> walk w ?op ~at:next ~hops:(hops + 1) ~attach ())
  end

let join w ?op ~joiner ~root ~on_done () =
  let attach ~cp ~hops =
    Peer.attach_child ~parent:cp ~child:joiner;
    World.register w joiner;
    (match joiner.Peer.t_home with
     | Some home -> World.snet_size_changed w home ~delta:1
     | None -> ());
    World.bump w ~subsystem:"s_network" ~name:"joins_completed";
    (* Completion notice travels back to the joiner. *)
    World.send_span w ?op ~tier:"s_network" ~phase:"join_reply" ~src:cp
      ~dst:joiner (fun () -> on_done ~hops:(hops + 1) ~cp)
  in
  walk w ?op ~at:root ~hops:0 ~attach ()

let rec set_subtree_home_peer ~home peer =
  Peer.set_t_home peer (Some home);
  Peer.set_p_id peer home.Peer.p_id;
  List.iter (set_subtree_home_peer ~home) peer.Peer.children

let set_subtree_home _w ~root ~home = set_subtree_home_peer ~home root

let rejoin_subtree w ?op ~child ~root ~on_done () =
  World.bump w ~subsystem:"s_network" ~name:"rejoins";
  let attach ~cp ~hops =
    Peer.attach_child ~parent:cp ~child;
    (* attach_child only rewires the child itself; carry the subtree. *)
    set_subtree_home_peer ~home:(Option.get cp.Peer.t_home) child;
    (* the rejoining subtree carries data the receiving tree's edge
       summaries know nothing about *)
    Summaries.invalidate_tree cp;
    on_done ~hops
  in
  walk w ?op ~at:root ~hops:0 ~attach ()

(* Synchronous variant used by offline repair: same random walk, no
   messages (repair models the *outcome* of recovery, not its timing). *)
let rejoin_subtree_sync w ~child ~root =
  let rec walk at =
    if Peer.has_free_slot w.World.config at || at.Peer.children = [] then at
    else walk (Rng.pick_list w.World.rng at.Peer.children)
  in
  let cp = walk root in
  Peer.attach_child ~parent:cp ~child;
  set_subtree_home_peer ~home:(Option.get cp.Peer.t_home) child;
  Summaries.invalidate_tree cp

let leave w ?op peer =
  if Peer.is_t_peer peer then invalid_arg "S_network.leave: t-peer";
  if not peer.Peer.alive then invalid_arg "S_network.leave: dead peer";
  World.bump w ~subsystem:"s_network" ~name:"leaves";
  let home = Option.get peer.Peer.t_home in
  (* the departing peer's load moves one hop up: ancestor summaries now
     misplace those keys by one level, so stop pruning until a rebuild *)
  Summaries.invalidate_tree home;
  (* Transfer the data load to the connect point. *)
  (match peer.Peer.cp with
   | Some cp ->
     List.iter
       (fun (key, value, route_id) -> Data_store.insert_routed cp.Peer.store ~route_id ~key ~value)
       (Data_store.take_all peer.Peer.store)
   | None -> ());
  (match peer.Peer.cp with
   | Some cp -> Peer.detach_child ~parent:cp ~child:peer
   | None -> ());
  Peer.set_alive peer false;
  World.unregister w peer;
  World.snet_size_changed w home ~delta:(-1);
  (* Children rejoin through the t-peer, carrying their subtrees; live
     subtrees below already-dead children are rescued too. *)
  let orphans = Peer.live_subtree_roots peer.Peer.children in
  Peer.set_children peer [];
  List.iter
    (fun child ->
      Peer.set_cp child None;
      World.send_span w ?op ~tier:"s_network" ~phase:"rejoin" ~src:child
        ~dst:home (fun () ->
          rejoin_subtree w ?op ~child ~root:home ~on_done:(fun ~hops:_ -> ()) ()))
    orphans

let flood w ?op ?prune_key ~from ~ttl ~visit () =
  Metrics.record_flood w.World.metrics;
  (* A keyed flood rebuilds the tree's edge summaries if they went stale —
     synchronous, like the other oracle-style maintenance: we model the
     outcome of background summary propagation, not its timing. *)
  (match prune_key with Some _ -> Summaries.ensure_fresh w from | None -> ());
  let rec deliver peer ~depth ~sender =
    Metrics.record_flood_visit w.World.metrics;
    (match (sender, w.World.on_query) with
     | Some s, Some hook -> hook ~receiver:peer ~sender:s
     | (None, _ | _, None) -> ());
    let keep_forwarding = visit peer ~depth in
    if depth < ttl && keep_forwarding then begin
      (* Freshness is re-checked at every hop: if churn invalidated the
         summaries while this flood was in flight, pruning stops and the
         flood degrades to the full tree visit. *)
      let prune =
        match prune_key with
        | Some _ ->
          Summaries.enabled w && Summaries.fresh w (Summaries.tree_root peer)
        | None -> false
      in
      let next_hops =
        List.filter
          (fun q -> q.Peer.alive && (match sender with Some s -> q != s | None -> true))
          (Peer.tree_neighbors peer)
      in
      let next_hops =
        if not prune then next_hops
        else
          List.filter
            (fun q ->
              (* only child edges carry summaries; the upward (cp) edge is
                 never pruned *)
              let is_child =
                match peer.Peer.cp with Some c -> c != q | None -> true
              in
              (not is_child)
              ||
              let key = Option.get prune_key in
              let may = Summaries.child_may_hold peer q ~budget:(ttl - depth) ~key in
              if not may then
                Metrics.record_flood_pruned w.World.metrics;
              may)
            next_hops
      in
      List.iter
        (fun q ->
          World.send_span w ?op ~tier:"s_network" ~phase:"flood" ~src:peer ~dst:q
            (fun () -> deliver q ~depth:(depth + 1) ~sender:(Some peer)))
        next_hops
    end
  in
  deliver from ~depth:0 ~sender:None
