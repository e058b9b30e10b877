open P2p_hashspace
module Rng = P2p_sim.Rng
module Engine = P2p_sim.Engine

let successor_or_self peer = Option.value peer.Peer.succ ~default:peer

(* The farthest of [fingers.(0..k)] that is a live t-peer strictly
   between [current] and [target]: the scan runs down from [k] and stops
   at its first hit. *)
let rec preceding_finger fingers current target k =
  if k < 0 then None
  else
    match fingers.(k) with
    | Some f as hit
      when f.Peer.alive && Peer.is_t_peer f && f != current
           && Id_space.between f.Peer.p_id ~left:current.Peer.p_id ~right:target ->
      hit
    | Some _ | None -> preceding_finger fingers current target (k - 1)

let closest_preceding_finger w current target =
  let fingers = World.fingers w current in
  preceding_finger fingers current target (Array.length fingers - 1)

(* Walk the ring from [current] until [p_id] falls in (current, succ];
   each forward is a message.  Joins always take the O(log N) finger walk
   (the paper's Fig. 3a analysis assumes it). *)
let find_position w ?op ~current ~p_id ~hops ~on_found () =
  World.ensure_fingers w;
  let max_hops = (4 * Id_space.bits) + (2 * World.peer_count w) + 8 in
  let rec step current hops =
    let succ = successor_or_self current in
    if
      succ == current
      || Id_space.between_incl_right p_id ~left:current.Peer.p_id ~right:succ.Peer.p_id
    then on_found ~pre:current ~hops
    else if hops > max_hops then begin
      (* Crashes left the pointers inconsistent with the membership; let
         stabilization catch up, then answer from the repaired ring. *)
      World.stabilize_ring w;
      World.bump w ~subsystem:"t_network" ~name:"stabilizations";
      match World.oracle_owner w p_id with
      | Some owner ->
        let pre = Option.value owner.Peer.pred ~default:owner in
        on_found ~pre ~hops
      | None -> on_found ~pre:current ~hops
    end
    else begin
      let next =
        match closest_preceding_finger w current p_id with
        | Some f -> f
        | None -> succ
      in
      World.send_span w ?op ~tier:"t_network" ~phase:"ring_hop" ~src:current
        ~dst:next (fun () -> step next (hops + 1))
    end
  in
  step current hops

(* Pull the joiner's new data segment (pre_id, joiner.p_id] out of every
   member of the successor's s-network (Table 1, suc.loadtransfer). *)
let load_transfer_on_join w ~joiner ~succ ~pre_id =
  if succ != joiner then
    List.iter
      (fun member ->
        let moved =
          Data_store.take_segment member.Peer.store ~left:pre_id ~right:joiner.Peer.p_id
        in
        List.iter
          (fun (key, value, route_id) ->
            Data_store.insert_routed joiner.Peer.store ~route_id ~key ~value;
            if w.World.config.Config.s_style = Config.Bittorrent_tracker then begin
              Peer.remove_tracked succ key;
              Peer.set_tracked joiner key joiner
            end)
          moved)
      (Peer.tree_members succ)

(* A t-peer's segment lock: a join triangle after it, or a leave
   triangle it is in, as the leaver or as the leaver's predecessor. *)
let locked peer = peer.Peer.joining || peer.Peer.leaving

let wait_at peer k = Peer.set_join_queue peer (peer.Peer.join_queue @ [ k ])

let rec process_queue peer =
  match peer.Peer.join_queue with
  | k :: rest when not (locked peer) ->
    Peer.set_join_queue peer rest;
    k ();
    process_queue peer
  | [] | _ :: _ -> ()

let rec begin_insert w ?op ~pre ~joiner ~hops ~announce ~on_fail () =
  let succ = successor_or_self pre in
  if not pre.Peer.alive then
    (* The located predecessor died meanwhile; restart from the oracle. *)
    (match World.random_t_peer w with
     | Some other ->
       find_position w ?op ~current:other ~p_id:joiner.Peer.p_id ~hops
         ~on_found:(fun ~pre ~hops ->
           begin_insert w ?op ~pre ~joiner ~hops ~announce ~on_fail ())
         ()
     | None -> on_fail ())
  else if locked pre then
    wait_at pre (fun () -> begin_insert w ?op ~pre ~joiner ~hops ~announce ~on_fail ())
  else if
    succ != pre
    && not
         (Id_space.between_incl_right joiner.Peer.p_id ~left:pre.Peer.p_id
            ~right:succ.Peer.p_id)
  then
    (* The segment shrank while this request was queued; re-route it. *)
    find_position w ?op ~current:pre ~p_id:joiner.Peer.p_id ~hops
      ~on_found:(fun ~pre ~hops ->
        begin_insert w ?op ~pre ~joiner ~hops ~announce ~on_fail ())
      ()
  else begin
    (* pre.check: resolve an ID conflict by the ring midpoint. *)
    let conflict =
      joiner.Peer.p_id = succ.Peer.p_id || joiner.Peer.p_id = pre.Peer.p_id
    in
    let id_ok =
      if not conflict then true
      else
        match Id_space.midpoint ~left:pre.Peer.p_id ~right:succ.Peer.p_id with
        | Some mid ->
          Peer.set_p_id joiner mid;
          true
        | None -> false
    in
    if not id_ok then on_fail ()
    else begin
      Peer.set_joining pre true;
      let pre_id = pre.Peer.p_id in
      (* Join triangle (Fig. 2, left): pre -> new -> suc -> pre. *)
      World.send_span w ?op ~tier:"t_network" ~phase:"join_leg" ~src:pre
        ~dst:joiner (fun () ->
          Peer.set_succ joiner (Some succ);
          Peer.set_pred joiner (Some pre);
          World.send_span w ?op ~tier:"t_network" ~phase:"join_leg" ~src:joiner
            ~dst:succ (fun () ->
              Peer.set_pred succ (Some joiner);
              World.send_span w ?op ~tier:"t_network" ~phase:"join_leg"
                ~src:succ ~dst:pre (fun () ->
                  Peer.set_succ pre (Some joiner);
                  Peer.set_t_home joiner (Some joiner);
                  World.register w joiner;
                  World.refresh_fingers_of w joiner;
                  load_transfer_on_join w ~joiner ~succ ~pre_id;
                  Peer.set_joining pre false;
                  World.bump w ~subsystem:"t_network" ~name:"joins_completed";
                  announce ~hops:(hops + 3);
                  process_queue pre)))
    end
  end

let join w ?op ~joiner ~introducer ?(on_fail = fun () -> ()) ~on_done () =
  if not (Peer.is_t_peer joiner) then invalid_arg "T_network.join: joiner must be a t-peer";
  (* The join request first travels to the introducer. *)
  World.send_span w ?op ~tier:"t_network" ~phase:"join_request" ~src:joiner
    ~dst:introducer (fun () ->
      find_position w ?op ~current:introducer ~p_id:joiner.Peer.p_id ~hops:1
        ~on_found:(fun ~pre ~hops ->
          begin_insert w ?op ~pre ~joiner ~hops ~announce:on_done ~on_fail ())
        ())

let bootstrap w peer =
  if not (Peer.is_t_peer peer) then invalid_arg "T_network.bootstrap: t-peer required";
  Peer.set_succ peer (Some peer);
  Peer.set_pred peer (Some peer);
  Peer.set_t_home peer (Some peer);
  World.register w peer;
  World.refresh_fingers_of w peer

let promote_replacement w ?op ~old_peer ~replacement ~transfer_data () =
  World.bump w ~subsystem:"t_network" ~name:"promotions";
  let previous_size = World.snet_size w old_peer in
  (* Detach the replacement from its tree position; its subtree follows. *)
  (match replacement.Peer.cp with
   | Some cp when cp.Peer.alive -> Peer.detach_child ~parent:cp ~child:replacement
   | Some _ | None -> Peer.set_cp replacement None);
  Peer.set_role replacement Peer.T_peer;
  Peer.set_p_id replacement old_peer.Peer.p_id;
  Peer.set_t_home replacement (Some replacement);
  (* Membership first, so the sorted-ring oracle already sees the
     replacement when the old pointers are unusable (crash chains). *)
  Peer.set_alive old_peer false;
  World.unregister w old_peer;
  World.register w replacement;
  (* Take over the ring pointers (the paper's "take over the neighbors and
     the pointers of the original t-peer"); when a ring neighbour is dead
     too, fall back to the stabilized ring order. *)
  let sorted_neighbor ~offset =
    let arr = World.t_peers w in
    let n = Array.length arr in
    let index = ref 0 in
    Array.iteri (fun i p -> if p == replacement then index := i) arr;
    arr.((!index + offset + n) mod n)
  in
  let ring_succ =
    match old_peer.Peer.succ with
    | Some s when s != old_peer && s.Peer.alive && Peer.is_t_peer s -> s
    | Some _ | None -> sorted_neighbor ~offset:1
  in
  let ring_pred =
    match old_peer.Peer.pred with
    | Some p when p != old_peer && p.Peer.alive && Peer.is_t_peer p -> p
    | Some _ | None -> sorted_neighbor ~offset:(-1)
  in
  Peer.set_succ replacement (Some ring_succ);
  Peer.set_pred replacement (Some ring_pred);
  if ring_succ != replacement then Peer.set_pred ring_succ (Some replacement);
  if ring_pred != replacement then Peer.set_succ ring_pred (Some replacement);
  (* Data and tracker state. *)
  if transfer_data then begin
    List.iter
      (fun (key, value, route_id) ->
        Data_store.insert_routed replacement.Peer.store ~route_id ~key ~value)
      (Data_store.take_all old_peer.Peer.store);
    Option.iter
      (Hashtbl.iter (fun key holder ->
           let holder = if holder == old_peer then replacement else holder in
           Peer.set_tracked replacement key holder))
      old_peer.Peer.tracker_index;
    Peer.drop_tracker_index old_peer
  end;
  World.set_snet_size w replacement (Stdlib.max 0 (previous_size - 1));
  (* The replacement keeps its own children; re-home its subtree under the
     inherited p_id. *)
  S_network.set_subtree_home w ~root:replacement ~home:replacement;
  World.refresh_fingers_of w replacement;
  (* The cheap finger update: substitution, no recomputation. *)
  World.substitute_in_fingers w ~old_peer ~replacement;
  (* Orphaned children of the old t-peer rejoin under the replacement;
     live subtrees below dead children must not be abandoned. *)
  let orphans =
    List.filter (fun c -> c != replacement)
      (Peer.live_subtree_roots old_peer.Peer.children)
  in
  Peer.set_children old_peer [];
  List.iter
    (fun child ->
      Peer.set_cp child None;
      World.send_span w ?op ~tier:"s_network" ~phase:"rejoin" ~src:child
        ~dst:replacement (fun () ->
          S_network.rejoin_subtree w ?op ~child ~root:replacement
            ~on_done:(fun ~hops:_ -> ()) ()))
    orphans

(* Leave triangle (Fig. 2, right): leaving -> pre -> suc -> leaving.
   The leaver holds its own lock and its predecessor's for the whole
   triangle: both segments it rewires are closed to other changes. *)
let leave_triangle w ?op peer ~on_done =
  let succ = successor_or_self peer in
  if succ == peer then begin
    (* Last t-peer of the system. *)
    Peer.set_alive peer false;
    World.unregister w peer;
    on_done ()
  end
  else begin
    let pred = Option.value peer.Peer.pred ~default:succ in
    Peer.set_leaving peer true;
    Peer.set_joining pred true;
    (* n.loaddump(): all data moves to the successor. *)
    List.iter
      (fun (key, value, route_id) ->
        Data_store.insert_routed succ.Peer.store ~route_id ~key ~value;
        if w.World.config.Config.s_style = Config.Bittorrent_tracker then
          Peer.set_tracked succ key succ)
      (Data_store.take_all peer.Peer.store);
    World.send_span w ?op ~tier:"t_network" ~phase:"leave_leg" ~src:peer
      ~dst:pred (fun () ->
        Peer.set_succ pred (Some succ);
        World.send_span w ?op ~tier:"t_network" ~phase:"leave_leg" ~src:pred
          ~dst:succ (fun () ->
            (* suc checks the leaving peer is who its predecessor pointer
               points to before rewiring (Section 3.3). *)
            (match succ.Peer.pred with
             | Some p when p == peer -> Peer.set_pred succ (Some pred)
             | Some _ | None -> ());
            World.send_span w ?op ~tier:"t_network" ~phase:"leave_leg"
              ~src:succ ~dst:peer (fun () ->
                Peer.set_alive peer false;
                World.unregister w peer;
                World.substitute_in_fingers w ~old_peer:peer ~replacement:succ;
                Peer.set_leaving peer false;
                Peer.set_joining pred false;
                on_done ();
                (* joins that waited at the leaver find it dead and
                   re-resolve their segment from the live ring *)
                process_queue peer;
                process_queue pred)))
  end

let rec leave w ?op peer ~on_done =
  if not peer.Peer.alive then invalid_arg "T_network.leave: dead peer";
  if not (Peer.is_t_peer peer) then invalid_arg "T_network.leave: not a t-peer";
  (* The paper's "will not accept any leave request ... process the join
     request first": wait behind this segment's lock, then behind the
     predecessor's. *)
  let retry () = if peer.Peer.alive then leave w ?op peer ~on_done in
  if locked peer then wait_at peer retry
  else
    match peer.Peer.pred with
    | Some pred when pred.Peer.alive && locked pred -> wait_at pred retry
    | Some _ | None -> (
      World.bump w ~subsystem:"t_network" ~name:"leaves";
      let members =
        List.filter (fun m -> m != peer && m.Peer.alive) (Peer.tree_members peer)
      in
      match members with
      | [] -> leave_triangle w ?op peer ~on_done
      | _ ->
        let replacement = Rng.pick_list w.World.rng members in
        promote_replacement w ?op ~old_peer:peer ~replacement ~transfer_data:true ();
        on_done ())

let route_to_owner w ?op ~from ~d_id ~visit ~on_arrive () =
  if not (Peer.is_t_peer from) then invalid_arg "T_network.route_to_owner: from";
  let use_fingers = w.World.config.Config.use_fingers_for_data in
  if use_fingers then World.ensure_fingers w;
  let max_hops = (4 * Id_space.bits) + (2 * World.peer_count w) + 8 in
  let rec step current hops =
    visit current ~hops;
    if Peer.covers current d_id then on_arrive ~owner:current ~hops
    else if hops > max_hops then begin
      World.stabilize_ring w;
      World.bump w ~subsystem:"t_network" ~name:"stabilizations";
      match World.oracle_owner w d_id with
      | Some owner when owner != current -> on_arrive ~owner ~hops
      | Some _ | None -> on_arrive ~owner:current ~hops
    end
    else begin
      let succ = successor_or_self current in
      let next =
        if use_fingers then
          match closest_preceding_finger w current d_id with
          | Some f -> f
          | None -> succ
        else succ
      in
      if next == current then on_arrive ~owner:current ~hops
      else
        World.send_span w ?op ~tier:"t_network" ~phase:"ring_hop" ~src:current
          ~dst:next (fun () -> step next (hops + 1))
    end
  in
  step from 0
