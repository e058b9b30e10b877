module Engine = P2p_sim.Engine
module Rng = P2p_sim.Rng
module Trace = P2p_sim.Trace
module Graph = P2p_topology.Graph
module Routing = P2p_topology.Routing
module Metrics = P2p_net.Metrics
module Underlay = P2p_net.Underlay
module Histogram = P2p_stats.Histogram

type t = {
  w : World.t;
  routing : Routing.t;
  mutable next_host : int;
  lookups : Data_ops.expiry;
}

type join_outcome = { peer : Peer.t; hops : int; latency : float }

(* The paper's p_s for a join that names no role. *)
let s_fraction = 0.5

(* Per-message handling cost, ms. *)
let processing_delay = 0.1

let create ~seed ~routing ?(config = Config.default) ?snet_policy ?stress ?trace () =
  let engine = Engine.create ~seed () in
  let metrics = Metrics.create () in
  (* latency totals from every op, sampled or not *)
  (match trace with
   | Some tr when Trace.enabled tr ->
     P2p_obs.Spans.record_totals (Metrics.registry metrics) tr
   | Some _ | None -> ());
  let underlay =
    Underlay.create ~engine ~routing ~metrics ?stress ~processing_delay ()
  in
  let w = World.create ~engine ~underlay ~metrics ?trace ~config ?snet_policy () in
  Failure.install_query_hook w;
  if config.Config.transmission_ms > 0.0 then
    Underlay.set_transmission_delay underlay (fun ~src ~dst ->
        let capacity host =
          match World.find_peer w ~host with
          | Some p -> p.Peer.link_capacity
          | None -> 1.0
        in
        config.Config.transmission_ms /. Float.min (capacity src) (capacity dst));
  { w; routing; next_host = 0; lookups = Data_ops.expiry () }

let create_star ~seed ~peers ?(latency = 1.0) ?config ?snet_policy ?trace () =
  if peers <= 0 then invalid_arg "Hybrid.create_star: peers";
  let graph = Graph.create (peers + 1) in
  let hub = peers in
  for host = 0 to peers - 1 do
    Graph.add_edge graph host hub ~latency
  done;
  (* the hub is the only transit node; each host is a one-node stub domain *)
  Graph.mark_transit graph hub;
  let routing = Routing.create graph in
  create ~seed ~routing ?config ?snet_policy ?trace ()

let engine t = t.w.World.engine
let trace t = World.trace t.w
let metrics t = t.w.World.metrics
let config t = t.w.World.config
let world t = t.w
let now t = World.now t.w

let peers t = World.live_peers t.w
let peer_count t = World.peer_count t.w

let t_peer_count t = Array.length (World.t_peers t.w)
let s_peer_count t = peer_count t - t_peer_count t

(* The draw [Rng.pick_list] makes over [peers t] — one [Rng.int] over
   the population, then that rank in host order — without building the
   list. *)
let random_peer t =
  match peer_count t with
  | 0 -> invalid_arg "Hybrid.random_peer: empty system"
  | n -> World.nth_live_peer t.w (Rng.int t.w.World.rng n)

let run t = Engine.run (engine t)

let run_for t ms = Engine.run_until (engine t) ~time:(now t +. ms)

let finish_join t peer started ~op ?(on_done = fun (_ : join_outcome) -> ()) ~hops () =
  t.w.World.open_joins <- t.w.World.open_joins - 1;
  let latency = now t -. started in
  Metrics.record_join (metrics t) ~latency ~hops;
  Trace.end_op (trace t) ~time:(now t) ~op
    "#%d joined, %d hops, %.2f ms" peer.Peer.host hops latency;
  Failure.enable_heartbeats t.w peer;
  on_done { peer; hops; latency };
  T_network.process_queue peer

let join t ~host ?role ?p_id ?(link_capacity = 1.0) ?interest ?on_done () =
  (match World.find_peer t.w ~host with
   | Some _ -> invalid_arg "Hybrid.join: host already occupied"
   | None -> ());
  if host < 0 || host >= Graph.node_count (Routing.graph t.routing) then
    invalid_arg "Hybrid.join: host outside the physical topology";
  let no_t_peers = t_peer_count t = 0 in
  let role =
    if no_t_peers then Peer.T_peer
    else
      match role with
      | Some r -> r
      | None ->
        if Rng.bernoulli t.w.World.rng s_fraction then Peer.S_peer else Peer.T_peer
  in
  let started = now t in
  t.w.World.open_joins <- t.w.World.open_joins + 1;
  match role with
  | Peer.T_peer ->
    let p_id = match p_id with Some id -> id | None -> World.fresh_p_id t.w in
    let peer =
      Peer.make ~log:(World.change_log t.w) ~interner:(World.interner t.w) ~host ~p_id
        ~role:Peer.T_peer ~link_capacity ?interest ()
    in
    let op =
      Trace.begin_op (trace t) ~time:started ~kind:Trace.T_join
        (Printf.sprintf "#%d" host)
    in
    (* A join can fail if the ring empties while the request is in
       flight; the joiner then retries through the server, bootstrapping a
       fresh ring if it is first. *)
    let retries = ref 0 in
    let rec start_join () =
      match World.random_t_peer t.w with
      | None ->
        T_network.bootstrap t.w peer;
        finish_join t peer started ~op ?on_done ~hops:0 ()
      | Some introducer ->
        T_network.join t.w ~op ~joiner:peer ~introducer
          ~on_fail:(fun () ->
            incr retries;
            if !retries <= 30 then
              ignore
                (World.one_shot t.w ~delay:1.0 start_join : P2p_sim.Timer.t))
          ~on_done:(fun ~hops -> finish_join t peer started ~op ?on_done ~hops ())
          ()
    in
    start_join ();
    peer
  | Peer.S_peer ->
    let peer =
      Peer.make ~log:(World.change_log t.w) ~interner:(World.interner t.w) ~host ~p_id:0
        ~role:Peer.S_peer ~link_capacity ?interest ()
    in
    let op =
      Trace.begin_op (trace t) ~time:started ~kind:Trace.S_join
        (Printf.sprintf "#%d" host)
    in
    let root =
      match World.choose_s_network t.w ~joiner:peer with
      | Some root -> root
      | None -> assert false (* no_t_peers handled above *)
    in
    (* The join request first travels to the assigned t-peer. *)
    World.send_span t.w ~op ~tier:"s_network" ~phase:"join_request" ~src:peer
      ~dst:root (fun () ->
        S_network.join t.w ~op ~joiner:peer ~root
          ~on_done:(fun ~hops ~cp:_ ->
            finish_join t peer started ~op ?on_done ~hops:(hops + 1) ())
          ());
    peer

let settle t =
  if (config t).Config.heartbeats then
    run_for t (3.0 *. (config t).Config.hello_timeout)
  else run t

let fresh_host t =
  let limit = Graph.node_count (Routing.graph t.routing) in
  let rec scan host =
    if host >= limit then invalid_arg "Hybrid.grow: physical topology exhausted"
    else
      match World.find_peer t.w ~host with
      | None -> host
      | Some _ -> scan (host + 1)
  in
  let host = scan t.next_host in
  t.next_host <- host + 1;
  host

let grow t ~count ~s_fraction =
  Array.init count (fun _ ->
      let host = fresh_host t in
      let role =
        if t_peer_count t = 0 then Peer.T_peer
        else if Rng.bernoulli t.w.World.rng s_fraction then Peer.S_peer
        else Peer.T_peer
      in
      let peer = join t ~host ~role () in
      settle t;
      peer)

let leave t peer ?(on_done = fun () -> ()) () =
  let op =
    Trace.begin_op (trace t) ~time:(now t) ~kind:Trace.Leave
      (Printf.sprintf "#%d" peer.Peer.host)
  in
  t.w.World.open_leaves <- t.w.World.open_leaves + 1;
  let on_done () =
    t.w.World.open_leaves <- t.w.World.open_leaves - 1;
    Trace.end_op (trace t) ~time:(now t) ~op
      "#%d left" peer.Peer.host;
    on_done ()
  in
  (* a peer has nothing to leave until its join wires it: the leave
     waits in its own queue, which [finish_join] drains *)
  let rec leave_wired () =
    if Option.is_none peer.Peer.t_home then
      T_network.wait_at peer (fun () -> if peer.Peer.alive then leave_wired ())
    else
      match peer.Peer.role with
      | Peer.T_peer -> T_network.leave t.w ~op peer ~on_done
      | Peer.S_peer ->
        S_network.leave t.w ~op peer;
        on_done ()
  in
  leave_wired ()

let crash t peer = Failure.crash t.w peer

let repair t = Failure.repair t.w

let insert t ~from ~key ~value ?route_id ?(on_done = fun ~holder:_ ~hops:_ -> ()) () =
  Data_ops.insert t.w ~from ~key ~value ?route_id () ~on_done

let lookup t ~from ~key ?ttl ?route_id ~on_result () =
  Data_ops.lookup t.w t.lookups ~from ~key ?ttl ?route_id () ~on_result

let keyword_search t ~from ~substring ~route_id ?ttl ?(window = 2_000.0)
    ~on_result () =
  Data_ops.keyword_lookup t.w ~from ~substring ~route_id ?ttl ~window () ~on_result

let data_distribution t =
  let h = Histogram.create () in
  List.iter (fun p -> Histogram.observe h (Data_store.size p.Peer.store)) (peers t);
  h

let total_items t =
  List.fold_left (fun acc p -> acc + Data_store.size p.Peer.store) 0 (peers t)
