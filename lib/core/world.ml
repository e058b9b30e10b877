open P2p_hashspace
module Engine = P2p_sim.Engine
module Rng = P2p_sim.Rng
module Trace = P2p_sim.Trace
module Underlay = P2p_net.Underlay
module Metrics = P2p_net.Metrics
module Landmark = P2p_topology.Landmark
module Transport = P2p_transport.Transport

type snet_policy =
  | Smallest_s_network
  | By_interest
  | By_cluster of Landmark.t

(* Membership state is flat: hosts are dense graph-node ids, so a
   [Peer.t option array] indexed by host replaces the host->peer Hashtbl,
   and an int array (-1 = no entry) replaces the s-network size table.
   The t-ring oracle keeps a parallel [t_ids] int array next to
   [t_sorted] so successor search is a binary search over a flat int
   array with no pointer chasing.  See SCALING.md for the per-peer byte
   budget this buys at million-peer scale. *)
type t = {
  engine : Engine.t;
  underlay : Underlay.t;
  transport : Transport.t;
  metrics : Metrics.t;
  trace : Trace.t;
  config : Config.t;
  rng : Rng.t;
  interner : Intern.t;
  mutable slots : Peer.t option array;
  mutable live_count : int;
  mutable snet : int array;
  mutable t_sorted : Peer.t array;
  mutable t_ids : int array;
  mutable t_dirty : bool;
  mutable fingers_dirty : bool;
  mutable summary_epoch : int;
  snet_policy : snet_policy;
  pending_election : (int, Peer.t option) Hashtbl.t;
  mutable on_query : (receiver:Peer.t -> sender:Peer.t -> unit) option;
  mutable on_stored :
    (op:int option ->
    holder:Peer.t ->
    route_id:Id_space.id ->
    key:string ->
    value:string ->
    unit)
      option;
  mutable on_peer_failure : (Peer.t -> unit) option;
  mutable on_repaired : (op:int option -> unit) option;
  mutable replication_pending : int;
}

let create ~engine ~underlay ~metrics ?(trace = Trace.disabled) ~config
    ?(snet_policy = Smallest_s_network) () =
  (match Config.validate config with
   | Ok () -> ()
   | Error reason -> invalid_arg ("World.create: " ^ reason));
  {
    engine;
    underlay;
    transport = P2p_transport.Sim_transport.create ~underlay;
    metrics;
    trace;
    config;
    rng = Rng.split (Engine.rng engine);
    interner = Intern.create ();
    slots = [||];
    live_count = 0;
    snet = [||];
    t_sorted = [||];
    t_ids = [||];
    t_dirty = false;
    fingers_dirty = false;
    summary_epoch = 0;
    snet_policy;
    pending_election = Hashtbl.create 8;
    on_query = None;
    on_stored = None;
    on_peer_failure = None;
    on_repaired = None;
    replication_pending = 0;
  }

let now t = Transport.now t.transport

let trace t = t.trace

let interner t = t.interner

let send t ~src ~dst f =
  Transport.send t.transport ~src:src.Peer.host ~dst:dst.Peer.host f

(* Timers on the transport clock — the protocol layers' only way to arm
   delayed work, so the same code runs over the simulation engine and
   the live wall-clock wheel. *)
let one_shot t ?label ~delay f = Transport.one_shot t.transport ?label ~delay f

let periodic t ?label ~period f =
  Transport.periodic t.transport ?label ~period f

(* Like [send], but the delivery is also a causal span of [op]: opened
   when the message is posted, closed (under the op's root span — no
   parent threading at call sites) when the handler finishes, so the
   span covers propagation delay plus handler work.  Unsampled ops take
   the plain path: no span, no handler wrapper, no closure — the
   per-message cost head-based sampling exists to avoid. *)
let send_span t ?op ~tier ~phase ~src ~dst f =
  let tr = trace t in
  match op with
  | Some op_id when Trace.enabled tr && Trace.sampled tr op_id ->
    let span =
      Trace.begin_span tr ~time:(now t) ~op:op_id ~tier ~phase
        ~src:src.Peer.host ~dst:dst.Peer.host phase
    in
    Transport.send t.transport ~src:src.Peer.host ~dst:dst.Peer.host
      (fun () ->
        Fun.protect
          ~finally:(fun () -> Trace.end_span tr ~time:(now t) span)
          f)
  | _ -> send t ~src ~dst f

(* A zero-duration span: an instant of attributable work (a cache probe,
   a heal step) that costs no simulated time. *)
let mark_span t ?op ~tier ~phase ?src ?dst label =
  match op with
  | Some op_id ->
    Trace.mark_span (trace t) ~time:(now t) ~op:op_id ~tier ~phase
      ?src:(Option.map (fun p -> p.Peer.host) src)
      ?dst:(Option.map (fun p -> p.Peer.host) dst)
      label
  | None -> ()

let bump t ~subsystem ~name = Metrics.bump t.metrics ~subsystem ~name

let touch_ring t =
  t.t_dirty <- true;
  t.fingers_dirty <- true;
  (* ring membership changes move segment ownership and restructure trees,
     so every edge summary built before this instant is suspect *)
  t.summary_epoch <- t.summary_epoch + 1

(* Grow both host-indexed arrays to cover [host] (doubling, so n peers
   cost O(n) amortized).  Hosts are graph node ids — dense from 0 — so
   the arrays carry essentially no slack. *)
let ensure_slot t host =
  let n = Array.length t.slots in
  if host >= n then begin
    let cap = ref (max 16 n) in
    while host >= !cap do
      cap := !cap * 2
    done;
    let slots = Array.make !cap None in
    Array.blit t.slots 0 slots 0 n;
    t.slots <- slots;
    let snet = Array.make !cap (-1) in
    Array.blit t.snet 0 snet 0 n;
    t.snet <- snet
  end

let register t peer =
  let host = peer.Peer.host in
  if host < 0 then invalid_arg "World.register: negative host";
  ensure_slot t host;
  (match t.slots.(host) with
   | None -> t.live_count <- t.live_count + 1
   | Some _ -> ());
  t.slots.(host) <- Some peer;
  if Peer.is_t_peer peer then begin
    touch_ring t;
    if t.snet.(host) < 0 then t.snet.(host) <- 0
  end

let unregister t peer =
  let host = peer.Peer.host in
  if host >= 0 && host < Array.length t.slots then begin
    (match t.slots.(host) with
     | Some _ -> t.live_count <- t.live_count - 1
     | None -> ());
    t.slots.(host) <- None;
    if Peer.is_t_peer peer then begin
      touch_ring t;
      t.snet.(host) <- -1
    end
  end

let find_peer t ~host =
  if host < 0 || host >= Array.length t.slots then None else t.slots.(host)

let peer_count t = t.live_count

let host_bound t = Array.length t.slots

let iter_peers t f =
  Array.iter (function Some p -> f p | None -> ()) t.slots

let live_peers t =
  let acc = ref [] in
  for i = Array.length t.slots - 1 downto 0 do
    match t.slots.(i) with Some p -> acc := p :: !acc | None -> ()
  done;
  !acc

let t_peers t =
  if t.t_dirty then begin
    let acc = ref [] in
    for i = Array.length t.slots - 1 downto 0 do
      match t.slots.(i) with
      | Some p when Peer.is_t_peer p && p.Peer.alive -> acc := p :: !acc
      | Some _ | None -> ()
    done;
    let arr = Array.of_list !acc in
    Array.sort (fun a b -> compare a.Peer.p_id b.Peer.p_id) arr;
    t.t_sorted <- arr;
    t.t_ids <- Array.map (fun p -> p.Peer.p_id) arr;
    t.t_dirty <- false
  end;
  t.t_sorted

(* Index into the sorted t-peer array of [d_id]'s successor — the first
   p_id >= d_id, wrapping to index 0 past the highest p_id.  The search
   runs over the flat [t_ids] int array (no pointer chasing per probe);
   [-1] on an empty ring. *)
let successor_index t d_id =
  ignore (t_peers t);
  let ids = t.t_ids in
  let n = Array.length ids in
  if n = 0 then -1
  else begin
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ids.(mid) >= d_id then hi := mid else lo := mid + 1
    done;
    if !lo = n then 0 else !lo
  end

let oracle_owner t d_id =
  match successor_index t d_id with
  | -1 -> None
  | i -> Some t.t_sorted.(i)

let fresh_p_id t = Rng.int t.rng Id_space.size

let random_t_peer t =
  let arr = t_peers t in
  if Array.length arr = 0 then None else Some (Rng.pick t.rng arr)

let snet_size t tpeer =
  let host = tpeer.Peer.host in
  if host < 0 || host >= Array.length t.snet then 0 else max 0 t.snet.(host)

let set_snet_size t tpeer n =
  let host = tpeer.Peer.host in
  if host < 0 then invalid_arg "World.set_snet_size: negative host";
  ensure_slot t host;
  t.snet.(host) <- n

let snet_size_changed t tpeer ~delta =
  set_snet_size t tpeer (snet_size t tpeer + delta)

let snet_size_entries t =
  let acc = ref [] in
  for host = Array.length t.snet - 1 downto 0 do
    if t.snet.(host) >= 0 then acc := (host, t.snet.(host)) :: !acc
  done;
  !acc

let fingers_fresh t = not t.fingers_dirty

let smallest_s_network t =
  let arr = t_peers t in
  if Array.length arr = 0 then None
  else begin
    let best = ref arr.(0) in
    Array.iter (fun p -> if snet_size t p < snet_size t !best then best := p) arr;
    Some !best
  end

(* Interest-based assignment: a category's home is the s-network serving
   the category's routing ID, so interested peers and the category's data
   meet in one s-network (Section 5.3). *)
let by_interest t ~joiner =
  match joiner.Peer.interest with
  | Some category -> oracle_owner t (Interest.route_id category)
  | None -> smallest_s_network t

let by_cluster t landmark ~joiner =
  let arr = t_peers t in
  let n = Array.length arr in
  if n = 0 then None
  else begin
    let cluster = Landmark.cluster_id landmark joiner.Peer.host in
    (* Same cluster -> same s-network.  Prefer a t-peer physically inside
       the joiner's cluster (so the whole s-network is co-located and its
       flood traffic stays off the backbone); balance by size among the
       candidates.  Clusters without a t-peer spread round-robin. *)
    let same_cluster =
      Array.to_list arr
      |> List.filter (fun p -> Landmark.cluster_id landmark p.Peer.host = cluster)
    in
    match same_cluster with
    | [] -> Some arr.(cluster mod n)
    | first :: rest ->
      Some
        (List.fold_left
           (fun best p -> if snet_size t p < snet_size t best then p else best)
           first rest)
  end

let choose_s_network t ~joiner =
  match t.snet_policy with
  | Smallest_s_network -> smallest_s_network t
  | By_interest -> by_interest t ~joiner
  | By_cluster landmark -> by_cluster t landmark ~joiner

let refresh_fingers_of t peer =
  let fingers =
    if Array.length peer.Peer.fingers = Id_space.bits then peer.Peer.fingers
    else begin
      let arr = Array.make Id_space.bits None in
      peer.Peer.fingers <- arr;
      arr
    end
  in
  for k = 0 to Id_space.bits - 1 do
    fingers.(k) <- oracle_owner t (Id_space.finger_start ~base:peer.Peer.p_id k)
  done

let ensure_fingers t =
  if t.fingers_dirty then begin
    Array.iter (refresh_fingers_of t) (t_peers t);
    t.fingers_dirty <- false
  end

let stabilize_ring t =
  t.t_dirty <- true;
  t.fingers_dirty <- true;
  let arr = t_peers t in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    arr.(i).Peer.succ <- Some arr.((i + 1) mod n);
    arr.(i).Peer.pred <- Some arr.((i + n - 1) mod n)
  done;
  ensure_fingers t

let substitute_in_fingers t ~old_peer ~replacement =
  Array.iter
    (fun p ->
      Array.iteri
        (fun k f ->
          match f with
          | Some q when q == old_peer -> p.Peer.fingers.(k) <- Some replacement
          | Some _ | None -> ())
        p.Peer.fingers)
    (t_peers t)
