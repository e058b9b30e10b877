open P2p_hashspace
module Rng = P2p_sim.Rng
module Engine = P2p_sim.Engine
module Timer = P2p_sim.Timer
module Trace = P2p_sim.Trace
module Metrics = P2p_net.Metrics

type lookup_outcome =
  | Found of { holder : Peer.t; latency : float; hops : int }
  | Timed_out

(* Does the s-network [peer] belongs to serve [d_id]? *)
let snet_covers peer d_id =
  match peer.Peer.t_home with
  | Some home -> Peer.covers home d_id
  | None -> false

(* A live bypass target sitting in the s-network that serves [d_id]. *)
let bypass_towards w peer d_id =
  if not w.World.config.Config.bypass_enabled then None
  else
    List.find_opt (fun b -> snet_covers b d_id) (Peer.live_bypass peer ~now:(World.now w))

let refresh_bypass w peer target =
  Peer.add_bypass w.World.config peer target ~now:(World.now w)

(* Bypass rules 2 and 3: link the two endpoints of a cross-s-network data
   operation, in both directions. *)
let link_if_cross_network w a b =
  if w.World.config.Config.bypass_enabled && a != b then begin
    match (a.Peer.t_home, b.Peer.t_home) with
    | Some ha, Some hb when ha != hb ->
      let now = World.now w in
      Peer.add_bypass w.World.config a b ~now;
      Peer.add_bypass w.World.config b a ~now
    | Some _, Some _ | None, _ | _, None -> ()
  end

(* Report a newly stored item to the s-network's tracker (BitTorrent-style
   mode, Section 5.5). *)
let tracker_report w ?op ~holder ~key () =
  if w.World.config.Config.s_style = Config.Bittorrent_tracker then
    match holder.Peer.t_home with
    | Some home when home != holder ->
      World.send_span w ?op ~tier:"s_network" ~phase:"tracker" ~src:holder
        ~dst:home (fun () ->
          if home.Peer.alive then Peer.set_tracked home key holder)
    | Some home -> Peer.set_tracked home key holder
    | None -> ()

let store_here w ?op peer ~route_id ~key ~value =
  Data_store.insert_routed peer.Peer.store ~route_id ~key ~value;
  (* a replica copy at the primary holder itself would be redundant *)
  Data_store.remove peer.Peer.replicas ~key;
  Summaries.note_stored w ~holder:peer ~key;
  tracker_report w ?op ~holder:peer ~key ();
  match w.World.on_stored with
  | Some fan_out -> fan_out ~op ~holder:peer ~route_id ~key ~value
  | None -> ()

(* Placement scheme B: the random spreading walk from the owning t-peer
   down its tree.  Choosing the peer itself ends the walk. *)
let rec spread_walk w ?op current ~route_id ~key ~value ~hops ~on_done =
  let candidates = Array.of_list (current :: current.Peer.children) in
  let chosen = Rng.pick w.World.rng candidates in
  if chosen == current then begin
    store_here w ?op current ~route_id ~key ~value;
    on_done ~holder:current ~hops
  end
  else
    World.send_span w ?op ~tier:"s_network" ~phase:"spread_walk" ~src:current
      ~dst:chosen (fun () ->
        spread_walk w ?op chosen ~route_id ~key ~value ~hops:(hops + 1) ~on_done)

(* The item has arrived in the s-network that serves it; place it there. *)
let place_in_snetwork w ?op entry ~route_id ~key ~value ~hops ~on_done =
  match w.World.config.Config.placement with
  | Config.Store_at_tpeer | Config.Spread_to_neighbors
    when not (Peer.is_t_peer entry) ->
    (* Entered through a bypass link or generated locally: data stays at
       the entry peer — it is already inside the right s-network. *)
    store_here w ?op entry ~route_id ~key ~value;
    on_done ~holder:entry ~hops
  | Config.Store_at_tpeer ->
    store_here w ?op entry ~route_id ~key ~value;
    on_done ~holder:entry ~hops
  | Config.Spread_to_neighbors ->
    spread_walk w ?op entry ~route_id ~key ~value ~hops ~on_done

let insert w ~from ~key ~value ?route_id () ~on_done =
  let d_id = match route_id with Some id -> id | None -> Key_hash.of_string key in
  let op = Trace.begin_op (World.trace w) ~time:(World.now w) ~kind:Trace.Insert key in
  World.bump w ~subsystem:"data_ops" ~name:"inserts";
  let on_done ~holder ~hops =
    link_if_cross_network w from holder;
    Trace.end_op (World.trace w) ~time:(World.now w) ~op
      "stored at #%d after %d hops" holder.Peer.host hops;
    on_done ~holder ~hops
  in
  if snet_covers from d_id then
    place_in_snetwork w ~op from ~route_id:d_id ~key ~value ~hops:0 ~on_done
  else
    match bypass_towards w from d_id with
    | Some target ->
      refresh_bypass w from target;
      World.send_span w ~op ~tier:"t_network" ~phase:"bypass_hop" ~src:from
        ~dst:target (fun () ->
          place_in_snetwork w ~op target ~route_id:d_id ~key ~value ~hops:1 ~on_done)
    | None ->
      (match from.Peer.t_home with
       | None -> invalid_arg "Data_ops.insert: peer outside any s-network"
       | Some home ->
         let forward_from_home () =
           T_network.route_to_owner w ~op ~from:home ~d_id
             ~visit:(fun _ ~hops:_ -> ())
             ~on_arrive:(fun ~owner ~hops ->
               place_in_snetwork w ~op owner ~route_id:d_id ~key ~value ~hops:(hops + 1)
                 ~on_done)
             ()
         in
         if home == from then forward_from_home ()
         else
           World.send_span w ~op ~tier:"t_network" ~phase:"home_hop" ~src:from
             ~dst:home forward_from_home)

(* --- Lookup --- *)

(* Everything a pending lookup holds: its expiry batch and each attempt
   read their state from here, so no closure outlives a message in
   flight. *)
type ctx = {
  requester : Peer.t;
  key : string;
  d_id : int;
  mutable key_id : int;  (* [key]'s id in the world interner, [-1] until interned *)
  op : int;  (* trace operation id minted at lookup initiation *)
  started : float;
  mutable ttl : int;  (* the current attempt's flood TTL *)
  mutable attempts_left : int;  (* refloods left before the lookup times out *)
  mutable finished : bool;
  mutable replied : bool;
  mutable batch : batch;  (* the expiry batch the current attempt armed into *)
  on_result : lookup_outcome -> unit;
  w : World.t;
}

(* Section 3.4's requester timer, shared: every lookup attempt armed at
   one simulated instant joins one batch, whose single timer fires
   [lookup_timeout] later and expires its open members in arming order.
   The timer is scheduled at the first member's arm point, so it holds
   the (time, sequence) key that member's own timer would have held,
   and the other members' timers would have popped right after it with
   nothing in between: the event order is a per-lookup timer's. *)
and batch = {
  expiry : expiry;
  armed_at : float;
  mutable timer : Timer.t option;  (* [None] once fired or cancelled *)
  mutable members : ctx array;  (* [members.(0 .. size - 1)], in arming order *)
  mutable size : int;
  mutable live : int;  (* members still open in this batch *)
}

and expiry = { mutable current : batch option }

let expiry () = { current = None }

let join b ctx =
  if b.size = Array.length b.members then
    (* doubling by [Array.append]: [Array.make] of a major-heap array
       from a young [ctx] would force a minor collection *)
    b.members <-
      (if b.size = 0 then Array.make 8 ctx else Array.append b.members b.members);
  b.members.(b.size) <- ctx;
  b.size <- b.size + 1;
  b.live <- b.live + 1;
  ctx.batch <- b

(* A member leaves its batch's live count when it finishes or expires.
   The last one out cancels a timer that has not fired, so a batch whose
   lookups all succeed costs no event and never advances the clock. *)
let leave_batch ctx =
  let b = ctx.batch in
  b.live <- b.live - 1;
  if b.live = 0 then begin
    Option.iter Timer.cancel b.timer;
    b.timer <- None;
    b.members <- [||];
    b.size <- 0
  end

let finish_success ctx ~holder ~value ~hops =
  if not ctx.finished then begin
    ctx.finished <- true;
    leave_batch ctx;
    let latency = World.now ctx.w -. ctx.started in
    Metrics.record_lookup_success ctx.w.World.metrics ~latency ~hops;
    Trace.end_op (World.trace ctx.w) ~time:(World.now ctx.w) ~op:ctx.op
      "found at #%d, %d hops, %.2f ms" holder.Peer.host hops latency;
    link_if_cross_network ctx.w ctx.requester holder;
    (* the Section-7 caching scheme: the requester keeps a soft copy, so
       the next popular request is served locally *)
    let config = ctx.w.World.config in
    if config.Config.cache_capacity > 0 then begin
      Peer.cache_put ctx.requester ~capacity:config.Config.cache_capacity
        ~now:(World.now ctx.w) ~lifetime:config.Config.cache_lifetime ~key:ctx.key ~value;
      World.bump ctx.w ~subsystem:"cache" ~name:"fills"
    end;
    ctx.on_result (Found { holder; latency; hops })
  end

(* Probe [store] for the lookup's key by its id in the world interner,
   which every peer's stores share: the id is looked up once per lookup
   rather than the key hashed again at every contacted peer.  While the
   key has never been interned no store holds it, and each probe asks
   the interner again, so an insert that interns the key mid-lookup is
   seen exactly as by string. *)
let find_key ctx store =
  if ctx.key_id < 0 then
    ctx.key_id <- Option.value (Intern.find (World.interner ctx.w) ctx.key) ~default:(-1);
  if ctx.key_id < 0 then None else Data_store.find_id store ctx.key_id

(* Check one peer's database (and soft cache); reply to the requester on
   a hit.  Returns whether this peer keeps forwarding the flood. *)
let check_peer ctx peer ~hops =
  Metrics.record_contact ctx.w.World.metrics;
  let found =
    match find_key ctx peer.Peer.store with
    | Some _ as hit -> hit
    | None -> (
      (* replica fallback: a redundant copy serves the read when the
         primary is gone (empty unless replication is on) *)
      match find_key ctx peer.Peer.replicas with
      | Some _ as hit ->
        World.bump ctx.w ~subsystem:"replication" ~name:"replica_hits";
        World.mark_span ctx.w ~op:ctx.op ~tier:"replication" ~phase:"replica_hit"
          ~src:peer ctx.key;
        hit
      | None ->
        if ctx.w.World.config.Config.cache_capacity > 0 then begin
          let cached = Peer.cached peer ~now:(World.now ctx.w) ~key:ctx.key in
          World.bump ctx.w ~subsystem:"cache"
            ~name:(match cached with Some _ -> "hits" | None -> "misses");
          World.mark_span ctx.w ~op:ctx.op ~tier:"cache"
            ~phase:(match cached with Some _ -> "hit" | None -> "miss")
            ~src:peer ctx.key;
          cached
        end
        else None)
  in
  match found with
  | Some value when not ctx.replied ->
    ctx.replied <- true;
    World.send_span ctx.w ~op:ctx.op ~tier:"s_network" ~phase:"reply" ~src:peer
      ~dst:ctx.requester (fun () ->
        finish_success ctx ~holder:peer ~value ~hops:(hops + 1));
    false
  | Some _ -> false
  | None -> true

let flood_snetwork ctx ~entry ~base_hops ~ttl ~skip_entry_check =
  S_network.flood ctx.w ~op:ctx.op ~prune_key:ctx.key ~from:entry ~ttl
    ~visit:(fun peer ~depth ->
      if depth = 0 && skip_entry_check then true
      else check_peer ctx peer ~hops:(base_hops + depth))
    ()

(* BitTorrent-style resolution at the tracker t-peer. *)
let tracker_resolve ctx ~tracker ~base_hops =
  Metrics.record_contact ctx.w.World.metrics;
  match Peer.tracked tracker ctx.key with
  | Some holder when holder.Peer.alive ->
    World.send_span ctx.w ~op:ctx.op ~tier:"s_network" ~phase:"tracker"
      ~src:tracker ~dst:holder (fun () ->
        if holder.Peer.alive then
          ignore (check_peer ctx holder ~hops:(base_hops + 1) : bool)
        else Peer.remove_tracked tracker ctx.key)
  | Some _ | None ->
    (* Unknown key or dead holder: check the tracker's own store as a last
       resort (it may hold scheme-A data). *)
    ignore (check_peer ctx tracker ~hops:base_hops : bool)

(* Random-walk resolution: [walkers] independent walks over tree edges,
   each of at most [ttl] steps; a walker stops when its current peer holds
   the item. *)
let random_walk_snetwork ctx ~entry ~base_hops ~ttl ~walkers ~skip_entry_check =
  let continue_from_entry =
    if skip_entry_check then true else check_peer ctx entry ~hops:base_hops
  in
  if continue_from_entry then
    for _ = 1 to walkers do
      let rec step current depth =
        if depth < ttl && not ctx.finished then begin
          let candidates =
            List.filter (fun q -> q.Peer.alive) (Peer.tree_neighbors current)
          in
          match candidates with
          | [] -> ()
          | _ ->
            let next = Rng.pick_list ctx.w.World.rng candidates in
            World.send_span ctx.w ~op:ctx.op ~tier:"s_network" ~phase:"walk"
              ~src:current ~dst:next (fun () ->
                if next.Peer.alive then
                  if check_peer ctx next ~hops:(base_hops + depth + 1) then
                    step next (depth + 1))
        end
      in
      step entry 0
    done

(* Read-path fallback probe: the redundant copies live with the next
   [r] t-peers clockwise from the owner, which neither the tree flood nor
   the ring route (it approaches the owner from the predecessor side)
   ever visits.  Walk the successor chain in parallel with the
   in-network resolution; the [ctx.replied] guard makes duplicate hits
   harmless. *)
let probe_ring_replicas ctx ~entry ~base_hops =
  let config = ctx.w.World.config in
  if config.Config.replication_factor > 0 then
    match entry.Peer.t_home with
    | None -> ()
    | Some home ->
      let rec hop prev k hops =
        if k < config.Config.replication_factor then
          match prev.Peer.succ with
          | Some next when next != home && next.Peer.alive ->
            World.send_span ctx.w ~op:ctx.op ~tier:"replication"
              ~phase:"replica_probe" ~src:prev ~dst:next (fun () ->
                if next.Peer.alive then begin
                  ignore (check_peer ctx next ~hops : bool);
                  hop next (k + 1) (hops + 1)
                end)
          | Some _ | None -> ()
      in
      hop home 0 (base_hops + 1)

let resolve_in_snetwork ctx ~entry ~base_hops ~ttl ~skip_entry_check =
  probe_ring_replicas ctx ~entry ~base_hops;
  match ctx.w.World.config.Config.s_style with
  | Config.Flooding_tree -> flood_snetwork ctx ~entry ~base_hops ~ttl ~skip_entry_check
  | Config.Random_walks walkers ->
    random_walk_snetwork ctx ~entry ~base_hops ~ttl ~walkers ~skip_entry_check
  | Config.Bittorrent_tracker ->
    let tracker = Option.value entry.Peer.t_home ~default:entry in
    if tracker == entry then tracker_resolve ctx ~tracker ~base_hops
    else
      World.send_span ctx.w ~op:ctx.op ~tier:"s_network" ~phase:"tracker"
        ~src:entry ~dst:tracker (fun () ->
          if tracker.Peer.alive then tracker_resolve ctx ~tracker ~base_hops:(base_hops + 1))

(* Route from the requester's home t-peer to the owner; every t-peer on
   the ring path checks its database. *)
let route_from_home ctx ~home ~ttl ~base_hops =
  T_network.route_to_owner ctx.w ~op:ctx.op ~from:home ~d_id:ctx.d_id
    ~visit:(fun tpeer ~hops ->
      if tpeer.Peer.alive then ignore (check_peer ctx tpeer ~hops:(base_hops + hops) : bool))
    ~on_arrive:(fun ~owner ~hops ->
      resolve_in_snetwork ctx ~entry:owner ~base_hops:(base_hops + hops) ~ttl
        ~skip_entry_check:true)
    ()

(* One attempt: resolve from the requester with the current TTL.  The
   TTL is read once here, so an earlier attempt's messages still in
   flight keep the TTL they were sent with. *)
let start ctx =
  let w = ctx.w and from = ctx.requester and d_id = ctx.d_id and op = ctx.op
  and ttl = ctx.ttl in
  if snet_covers from d_id then
    resolve_in_snetwork ctx ~entry:from ~base_hops:0 ~ttl ~skip_entry_check:false
  else if not (check_peer ctx from ~hops:(-1)) then
    (* the requester itself held the item (typically a cached copy of
       popular data — the Section-7 scheme); the reply is already on its
       way *)
    ()
  else
    match bypass_towards w from d_id with
    | Some target ->
      refresh_bypass w from target;
      World.send_span w ~op ~tier:"t_network" ~phase:"bypass_hop" ~src:from
        ~dst:target (fun () ->
          if target.Peer.alive then
            resolve_in_snetwork ctx ~entry:target ~base_hops:1 ~ttl
              ~skip_entry_check:false)
    | None ->
      (match from.Peer.t_home with
       | None -> invalid_arg "Data_ops.lookup: peer outside any s-network"
       | Some home ->
         if home == from then route_from_home ctx ~home ~ttl ~base_hops:0
         else
           World.send_span w ~op ~tier:"t_network" ~phase:"home_hop" ~src:from
             ~dst:home (fun () ->
               if home.Peer.alive then route_from_home ctx ~home ~ttl ~base_hops:1))

(* The batch armed at this instant, opened (its timer scheduled) if
   there is none yet. *)
let rec batch_at expiry w =
  let now = World.now w in
  match expiry.current with
  | Some b when b.armed_at = now && Option.is_some b.timer -> b
  | Some _ | None ->
    let b = { expiry; armed_at = now; timer = None; members = [||]; size = 0; live = 0 } in
    b.timer <-
      Some (World.one_shot w ~delay:w.World.config.Config.lookup_timeout (fun () -> fire b));
    expiry.current <- Some b;
    b

and fire b =
  b.timer <- None;
  let members = b.members and size = b.size in
  for i = 0 to size - 1 do
    let ctx = members.(i) in
    if (not ctx.finished) && ctx.batch == b then expire ctx
  done

and expire ctx =
  leave_batch ctx;
  if ctx.attempts_left > 0 then begin
    (* Section 3.4: increase the TTL, rearm the timer, reflood. *)
    ctx.replied <- false;
    join (batch_at ctx.batch.expiry ctx.w) ctx;
    ctx.ttl <- 2 * Stdlib.max 1 ctx.ttl;
    ctx.attempts_left <- ctx.attempts_left - 1;
    start ctx
  end
  else begin
    ctx.finished <- true;
    Metrics.record_lookup_failure ctx.w.World.metrics;
    Trace.end_op (World.trace ctx.w) ~time:(World.now ctx.w) ~op:ctx.op "timed out";
    ctx.on_result Timed_out
  end

let lookup w expiry ~from ~key ?ttl ?route_id () ~on_result =
  let ttl = Option.value ttl ~default:w.World.config.Config.default_ttl in
  let d_id = match route_id with Some id -> id | None -> Key_hash.of_string key in
  Metrics.record_lookup_issued w.World.metrics;
  let op = Trace.begin_op (World.trace w) ~time:(World.now w) ~kind:Trace.Lookup key in
  let batch = batch_at expiry w in
  let ctx =
    {
      requester = from;
      key;
      d_id;
      key_id = -1;
      op;
      started = World.now w;
      ttl;
      attempts_left = w.World.config.Config.reflood_attempts;
      finished = false;
      replied = false;
      batch;
      on_result;
      w;
    }
  in
  join batch ctx;
  start ctx

(* --- Partial / keyword search (Section 5.3) --- *)

type keyword_match = { match_key : string; match_holder : Peer.t }

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  if nl = 0 then true
  else begin
    let rec scan i =
      if i + nl > hl then false
      else if String.sub haystack i nl = needle then true
      else scan (i + 1)
    in
    scan 0
  end

let keyword_lookup w ~from ~substring ~route_id ?ttl ~window () ~on_result =
  if window <= 0.0 then invalid_arg "Data_ops.keyword_lookup: window";
  let ttl = Option.value ttl ~default:w.World.config.Config.default_ttl in
  let op =
    Trace.begin_op (World.trace w) ~time:(World.now w) ~kind:Trace.Keyword substring
  in
  World.bump w ~subsystem:"data_ops" ~name:"keyword_lookups";
  let matches = ref [] in
  let closed = ref false in
  ignore
    (World.one_shot w ~delay:window (fun () ->
         closed := true;
         Trace.end_op (World.trace w) ~time:(World.now w) ~op
           "%d matches" (List.length !matches);
         on_result (List.rev !matches))
      : Timer.t);
  let scan_peer peer =
    Metrics.record_contact w.World.metrics;
    Data_store.iter peer.Peer.store (fun ~key ~value:_ ~route_id:_ ->
        if contains_substring ~needle:substring key then
          World.send_span w ~op ~tier:"s_network" ~phase:"reply" ~src:peer
            ~dst:from (fun () ->
              if not !closed then
                matches := { match_key = key; match_holder = peer } :: !matches));
    true (* partial search keeps flooding: it wants every match *)
  in
  let flood_from entry =
    S_network.flood w ~op ~from:entry ~ttl
      ~visit:(fun peer ~depth:_ -> scan_peer peer)
      ()
  in
  if snet_covers from route_id then flood_from from
  else
    match from.Peer.t_home with
    | None -> invalid_arg "Data_ops.keyword_lookup: peer outside any s-network"
    | Some home ->
      World.send_span w ~op ~tier:"t_network" ~phase:"home_hop" ~src:from
        ~dst:home (fun () ->
          if home.Peer.alive then
            T_network.route_to_owner w ~op ~from:home ~d_id:route_id
              ~visit:(fun _ ~hops:_ -> ())
              ~on_arrive:(fun ~owner ~hops:_ -> flood_from owner)
              ())
