module Timer = P2p_sim.Timer
module Trace = P2p_sim.Trace

(* Every overlay link a peer maintains: its tree edges plus, for a t-peer,
   its ring neighbours. *)
let overlay_neighbors peer =
  let ring =
    if Peer.is_t_peer peer then
      List.filter_map Fun.id [ peer.Peer.succ; peer.Peer.pred ]
      |> List.filter (fun q -> q != peer)
    else []
  in
  Peer.tree_neighbors peer @ ring

let is_neighbor peer q = List.exists (fun n -> n == q) (overlay_neighbors peer)

let cancel_watchdogs peer =
  Option.iter (Hashtbl.iter (fun _ t -> Timer.cancel t)) peer.Peer.watchdogs;
  Peer.drop_watchdogs peer

(* Collect the live members of a crashed t-peer's former s-network by
   walking through dead intermediate nodes. *)
let live_descendants dead =
  let rec walk acc p =
    let acc = if p.Peer.alive then p :: acc else acc in
    List.fold_left walk acc p.Peer.children
  in
  List.fold_left walk [] dead.Peer.children

(* The server election rule of Section 3.2.2: the surviving member of a
   crashed t-peer's s-network with the smallest address replaces it.
   Only a member the membership directory knows can be elected: a peer
   wired into the tree without registering (a negative-host stowaway)
   has no address the server could hand the ring. *)
let smallest_survivor w dead =
  let registered m =
    match World.find_peer w ~host:m.Peer.host with Some p -> p == m | None -> false
  in
  match List.filter registered (live_descendants dead) with
  | [] -> None
  | m :: rest ->
    Some
      (List.fold_left (fun best m -> if m.Peer.host < best.Peer.host then m else best) m rest)

(* Rewire the whole live ring from the sorted oracle — the end state the
   stabilization protocol reaches after an excision.  The membership
   change also stales every edge summary ({!World.touch_ring}). *)
let rebuild_ring w =
  World.touch_ring w;
  World.stabilize_ring w

(* The election, memoized per victim so concurrent detections agree. *)
let elect w ~dead =
  match Hashtbl.find_opt w.World.pending_election dead.Peer.host with
  | Some result -> result
  | None ->
    let result = smallest_survivor w dead in
    (match result with
     | None ->
       (* Nobody to promote: the segment dissolves into the successor's. *)
       rebuild_ring w
     | Some smallest ->
       T_network.promote_replacement w ~old_peer:dead ~replacement:smallest
         ~transfer_data:false ());
    World.bump w ~subsystem:"failure" ~name:"elections";
    Hashtbl.replace w.World.pending_election dead.Peer.host result;
    result

let rec arm_watchdog w peer ~target =
  match Peer.watchdog peer target.Peer.host with
  | Some t -> Timer.reset t
  | None ->
    let t =
      World.one_shot w ~delay:w.World.config.Config.hello_timeout (fun () ->
          on_timeout w peer ~target)
    in
    Peer.set_watchdog peer target.Peer.host t

and on_timeout w peer ~target =
  Peer.remove_watchdog peer target.Peer.host;
  World.bump w ~subsystem:"failure" ~name:"watchdog_timeouts";
  if peer.Peer.alive then
    if target.Peer.alive then begin
      (* False alarm (e.g. suppressed HELLOs); re-arm if still a neighbour. *)
      if is_neighbor peer target then arm_watchdog w peer ~target
    end
    else begin
      (* A genuine crash.  React according to which link died. *)
      if List.exists (fun c -> c == target) peer.Peer.children then
        Peer.set_children peer (List.filter (fun c -> c != target) peer.Peer.children);
      (match peer.Peer.cp with
       | Some cp when cp == target ->
         Peer.set_cp peer None;
         let root =
           match peer.Peer.t_home with
           | Some home when home.Peer.alive -> Some home
           | Some home -> elect w ~dead:home
           | None -> None
         in
         (match root with
          | Some root when root != peer && peer.Peer.cp = None && Peer.is_s_peer peer ->
            World.send w ~src:peer ~dst:root (fun () ->
                if root.Peer.alive && peer.Peer.alive && peer.Peer.cp = None then
                  S_network.rejoin_subtree w ~child:peer ~root
                    ~on_done:(fun ~hops:_ -> ()) ())
          | Some _ | None -> ())
       | Some _ | None -> ());
      if Peer.is_t_peer peer && Peer.is_t_peer target then begin
        let was_ring_neighbor =
          (match peer.Peer.succ with Some s -> s == target | None -> false)
          || (match peer.Peer.pred with Some p -> p == target | None -> false)
        in
        if was_ring_neighbor then ignore (elect w ~dead:target : Peer.t option)
      end;
      (* durability: let the replication manager react to the confirmed
         crash (fires once per detecting neighbour; the manager
         debounces) *)
      match w.World.on_peer_failure with
      | Some react -> react target
      | None -> ()
    end

let on_hello w ~receiver ~sender =
  if receiver.Peer.alive && sender.Peer.alive then arm_watchdog w receiver ~target:sender

let broadcast_hello w peer () =
  if peer.Peer.alive then
    List.iter
      (fun neighbor ->
        World.send w ~src:peer ~dst:neighbor (fun () ->
            on_hello w ~receiver:neighbor ~sender:peer))
      (overlay_neighbors peer)

let enable_heartbeats w peer =
  if w.World.config.Config.heartbeats && peer.Peer.alive then begin
    (match peer.Peer.hello_timer with
     | Some t -> Timer.cancel t
     | None -> ());
    Peer.set_hello_timer peer
      (Some
         (World.periodic w ~period:w.World.config.Config.hello_period
            (broadcast_hello w peer)));
    List.iter (fun neighbor -> arm_watchdog w peer ~target:neighbor) (overlay_neighbors peer)
  end

(* Minimum ms between two acknowledgments from one peer. *)
let suppress_period = 250.0

(* Acknowledgment machinery (Section 3.2.2): a queried peer acks the
   sender unless the suppress timer forbids it; the ack refreshes the
   sender's watchdog, and sending it postpones the peer's own HELLO. *)
let install_query_hook w =
  if w.World.config.Config.heartbeats then
    w.World.on_query <-
      Some
        (fun ~receiver ~sender ->
          if receiver.Peer.alive then begin
            let now = World.now w in
            if now -. receiver.Peer.last_ack_sent >= suppress_period then begin
              Peer.set_last_ack_sent receiver now;
              (* The scheduled HELLO is cancelled to save bandwidth: the ack
                 doubles as the heartbeat. *)
              (match receiver.Peer.hello_timer with
               | Some t -> Timer.reset t
               | None -> ());
              World.send w ~src:receiver ~dst:sender (fun () ->
                  if sender.Peer.alive && receiver.Peer.alive then
                    arm_watchdog w sender ~target:receiver)
            end
          end)

let crash w peer =
  if not peer.Peer.alive then invalid_arg "Failure.crash: peer already dead";
  World.bump w ~subsystem:"failure" ~name:"crashes";
  Peer.set_alive peer false;
  Data_store.clear peer.Peer.store;
  Data_store.clear peer.Peer.replicas;
  Peer.drop_cache peer;
  Peer.drop_tracker_index peer;
  Peer.set_bypass peer [];
  (match peer.Peer.hello_timer with
   | Some t ->
     Timer.cancel t;
     Peer.set_hello_timer peer None
   | None -> ());
  cancel_watchdogs peer;
  World.unregister w peer

let repair w =
  let op = Trace.begin_op (World.trace w) ~time:(World.now w) ~kind:Trace.Repair "" in
  World.bump w ~subsystem:"failure" ~name:"repairs";
  let live = World.live_peers w in
  (* Pass 1: drop dead children everywhere. *)
  List.iter
    (fun p -> Peer.set_children p (List.filter (fun c -> c.Peer.alive) p.Peer.children))
    live;
  World.mark_span w ~op ~tier:"failure" ~phase:"heal_step" "drop dead children";
  (* Pass 2: elect replacements for every crashed t-peer that stranded
     live s-peers (smallest surviving address wins). *)
  let replacements : (int, Peer.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun p ->
      match p.Peer.t_home with
      | Some home when (not home.Peer.alive) && not (Hashtbl.mem replacements home.Peer.host)
        -> begin
          match smallest_survivor w home with
          | None -> ()
          | Some smallest ->
            (* Orphans are reattached synchronously below; keep promote from
               racing them through async rejoins. *)
            Peer.set_children home [];
            T_network.promote_replacement w ~op ~old_peer:home ~replacement:smallest
              ~transfer_data:false ();
            Hashtbl.replace replacements home.Peer.host smallest
        end
      | Some _ | None -> ())
    live;
  World.mark_span w ~op ~tier:"failure" ~phase:"heal_step" "elect replacements";
  (* Pass 3: reattach every stranded live s-peer (its cp died or its whole
     branch did), carrying its subtree. *)
  List.iter
    (fun p ->
      if Peer.is_s_peer p && p.Peer.alive then begin
        let stranded =
          match p.Peer.cp with
          | None -> true
          | Some cp -> not cp.Peer.alive
        in
        if stranded then begin
          Peer.set_cp p None;
          let root =
            match p.Peer.t_home with
            | Some home when home.Peer.alive -> Some home
            | Some home -> Hashtbl.find_opt replacements home.Peer.host
            | None -> None
          in
          match root with
          | Some root when root != p -> S_network.rejoin_subtree_sync w ~child:p ~root
          | Some _ | None -> ()
        end
      end)
    live;
  World.mark_span w ~op ~tier:"failure" ~phase:"heal_step" "reattach stranded";
  (* Pass 4: rebuild the ring and refresh fingers, clear stuck mutexes. *)
  rebuild_ring w;
  let arr = World.t_peers w in
  let n = Array.length arr in
  Array.iter
    (fun p ->
      Peer.set_joining p false;
      Peer.set_leaving p false;
      Peer.set_join_queue p [])
    arr;
  World.mark_span w ~op ~tier:"failure" ~phase:"heal_step" "rebuild ring";
  (* Pass 5: recount s-network sizes. *)
  Array.iter
    (fun tpeer ->
      World.set_snet_size w tpeer (List.length (Peer.tree_members tpeer) - 1))
    arr;
  World.mark_span w ~op ~tier:"failure" ~phase:"heal_step" "recount s-networks";
  (* Pass 6: re-home misplaced data.  Items written while the overlay was
     partitioned (e.g. into an orphaned s-peer whose t-peer had crashed)
     may now sit outside the segment their holder's s-network serves;
     stabilization transfers them to the correct owner. *)
  if n > 0 then
    List.iter
      (fun p ->
        match p.Peer.t_home with
        | Some home when home.Peer.alive ->
          let left = Peer.segment_left home in
          (* the complement of the segment (left, p_id] is (p_id, left];
             a solo t-peer owns everything, so nothing is misplaced *)
          if left <> home.Peer.p_id then begin
            let misplaced =
              Data_store.take_segment p.Peer.store ~left:home.Peer.p_id ~right:left
            in
            List.iter
              (fun (key, value, route_id) ->
                match World.oracle_owner w route_id with
                | Some owner ->
                  Data_store.insert_routed owner.Peer.store ~route_id ~key ~value;
                  if w.World.config.Config.s_style = Config.Bittorrent_tracker then
                    Peer.set_tracked owner key owner
                | None -> ())
              misplaced
          end
        | Some _ | None -> ())
      (World.live_peers w);
  Hashtbl.reset w.World.pending_election;
  World.mark_span w ~op ~tier:"failure" ~phase:"heal_step" "re-home misplaced data";
  (* Pass 7 (when replication is on): the manager promotes surviving
     replicas of primaries that died with their holder and restores the
     replication factor onto the post-repair targets. *)
  (match w.World.on_repaired with
   | Some heal -> heal ~op:(Some op)
   | None -> ());
  Trace.end_op (World.trace w) ~time:(World.now w) ~op
    "%d live peers" (World.peer_count w)
