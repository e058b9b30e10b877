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
  changes : Peer.log;
  mutable slots : Peer.t option array;
  mutable live_count : int;
  mutable live_index : int array;
  mutable snet : int array;
  mutable t_sorted : Peer.t array;
  mutable t_ids : int array;
  mutable t_dirty : bool;
  mutable ring_joined : Peer.t list;
  mutable ring_dropped : Peer.t list;
  mutable ring_left : Peer.t list;
  by_size : Size_heap.t;
  mutable fingers_dirty : bool;
  mutable finger_sorted : Peer.t array;
  mutable finger_ids : int array;
  mutable finger_stale : Bytes.t;
  mutable finger_refreshes : int;
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
  mutable open_joins : int;
  mutable open_leaves : int;
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
    changes = { Peer.peers = Change_log.create (); keys = Change_log.create () };
    slots = [||];
    live_count = 0;
    live_index = [||];
    snet = [||];
    t_sorted = [||];
    t_ids = [||];
    t_dirty = false;
    ring_joined = [];
    ring_dropped = [];
    ring_left = [];
    by_size = Size_heap.create ();
    fingers_dirty = false;
    finger_sorted = [||];
    finger_ids = [||];
    finger_stale = Bytes.empty;
    finger_refreshes = 0;
    summary_epoch = 0;
    snet_policy;
    pending_election = Hashtbl.create 8;
    on_query = None;
    on_stored = None;
    on_peer_failure = None;
    on_repaired = None;
    replication_pending = 0;
    open_joins = 0;
    open_leaves = 0;
  }

let now t = Transport.now t.transport

let trace t = t.trace

let interner t = t.interner

let change_log t = t.changes

let send t ~src ~dst f =
  Transport.send t.transport ~src:src.Peer.host ~dst:dst.Peer.host f

(* Timers on the transport clock — the protocol layers' only way to arm
   delayed work. *)
let one_shot t ?label ~delay f = Transport.one_shot t.transport ?label ~delay f

let periodic t ?label ~period f =
  Transport.periodic t.transport ?label ~period f

(* Like [send], but the delivery is also a causal span of [op]: opened
   when the message is posted, closed by id (under the op's root span — no
   parent threading at call sites) when the handler finishes or raises,
   so the span covers propagation delay plus handler work.  Unsampled
   ops, and spans the trace suppressed, take the plain path: no span, no
   handler wrapper — the per-message cost head-based sampling exists to
   avoid. *)
let send_span t ?op ~tier ~phase ~src ~dst f =
  let tr = trace t in
  match op with
  | Some op_id when Trace.enabled tr && Trace.sampled tr op_id ->
    let span =
      Trace.begin_span tr ~time:(now t) ~op:op_id ~tier ~phase
        ~src:src.Peer.host ~dst:dst.Peer.host phase
    in
    if span < 0 then send t ~src ~dst f
    else
      Transport.send t.transport ~src:src.Peer.host ~dst:dst.Peer.host (fun () ->
          match f () with
          | () -> Trace.end_span tr ~time:(now t) span
          | exception e ->
            Trace.end_span tr ~time:(now t) span;
            raise e)
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

(* [live_index] is a Fenwick tree of occupied slots: cell [i] counts the
   occupied hosts in [(i + 1 - lowbit (i + 1)), i], so a count update or
   a rank search touches log2 (capacity) cells.  The capacity is a power
   of two (see [ensure_slot]), which [nth_live_peer]'s descent relies
   on. *)
let index_add t host delta =
  let n = Array.length t.live_index in
  let i = ref (host + 1) in
  while !i <= n do
    t.live_index.(!i - 1) <- t.live_index.(!i - 1) + delta;
    i := !i + (!i land - !i)
  done

(* Rebuild the tree over the current slots in one O(capacity) pass: each
   cell hands its total to the parent cell covering it. *)
let rebuild_index t =
  let n = Array.length t.slots in
  let index = Array.make n 0 in
  for i = 1 to n do
    if Option.is_some t.slots.(i - 1) then index.(i - 1) <- index.(i - 1) + 1;
    let parent = i + (i land -i) in
    if parent <= n then index.(parent - 1) <- index.(parent - 1) + index.(i - 1)
  done;
  t.live_index <- index

(* Grow the host-indexed arrays to cover [host] (doubling from 16, so
   capacities are powers of two and n peers cost O(n) amortized).  Hosts
   are graph node ids — dense from 0 — so the arrays carry essentially no
   slack. *)
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
    t.snet <- snet;
    rebuild_index t
  end

(* The ring members' hosts sit in [by_size] keyed by their current
   size, so every size-table write goes through [write_snet]. *)
let write_snet t host n =
  t.snet.(host) <- n;
  if Size_heap.mem t.by_size host then Size_heap.set_size t.by_size host (max 0 n)

(* The replication heal books each key's holders between passes; a peer
   entering or leaving the membership with copies moves holders no store
   write announces, so each of its copies is journaled as if written.
   The next heal re-examines just those keys; it takes a full census
   only on its first pass or after the journal overflowed. *)
let holders_moved p =
  Data_store.note_held p.Peer.store;
  Data_store.note_held p.Peer.replicas

let register t peer =
  let host = peer.Peer.host in
  if host < 0 then invalid_arg "World.register: negative host";
  if
    Data_store.interner peer.Peer.store != t.interner
    || Data_store.interner peer.Peer.replicas != t.interner
  then invalid_arg "World.register: the peer's stores use another interner";
  if peer.Peer.log != t.changes then
    invalid_arg "World.register: the peer logs its changes elsewhere";
  ensure_slot t host;
  Peer.log_change peer;
  (match t.slots.(host) with
   | None ->
     holders_moved peer;
     t.live_count <- t.live_count + 1;
     index_add t host 1
   | Some previous ->
     if previous != peer then begin
       holders_moved previous;
       holders_moved peer
     end;
     Peer.log_change previous;
     (* a t-peer displaced from its host leaves the ring *)
     if previous != peer && Peer.is_t_peer previous then begin
       t.ring_dropped <- previous :: t.ring_dropped;
       touch_ring t
     end);
  t.slots.(host) <- Some peer;
  if Peer.is_t_peer peer then begin
    t.ring_joined <- peer :: t.ring_joined;
    touch_ring t;
    if t.snet.(host) < 0 then write_snet t host 0
  end

let unregister t peer =
  let host = peer.Peer.host in
  if host >= 0 && host < Array.length t.slots then begin
    Peer.log_change peer;
    (match t.slots.(host) with
     | Some previous ->
       holders_moved previous;
       Peer.log_change previous;
       t.live_count <- t.live_count - 1;
       index_add t host (-1)
     | None -> ());
    t.slots.(host) <- None;
    if Peer.is_t_peer peer then begin
      t.ring_dropped <- peer :: t.ring_dropped;
      touch_ring t;
      write_snet t host (-1)
    end
  end

let find_peer t ~host =
  if host < 0 || host >= Array.length t.slots then None else t.slots.(host)

let peer_count t = t.live_count

let host_bound t = Array.length t.slots

let iter_peers t f =
  Array.iter (function Some p -> f p | None -> ()) t.slots

(* Descend the Fenwick tree from its root cell: at each halving step,
   skip the block of hosts below [pos + step] when it holds no more than
   the [k] peers still to pass. *)
let nth_live_peer t k =
  if k < 0 || k >= t.live_count then invalid_arg "World.nth_live_peer: rank out of range";
  let pos = ref 0 and rest = ref k in
  let step = ref (Array.length t.live_index) in
  while !step > 0 do
    let cell = !pos + !step in
    if cell <= Array.length t.live_index && t.live_index.(cell - 1) <= !rest then begin
      pos := cell;
      rest := !rest - t.live_index.(cell - 1)
    end;
    step := !step / 2
  done;
  match t.slots.(!pos) with
  | Some p -> p
  | None -> assert false

let live_peers t =
  let acc = ref [] in
  for i = Array.length t.slots - 1 downto 0 do
    match t.slots.(i) with Some p -> acc := p :: !acc | None -> ()
  done;
  !acc

(* Ring order: p_id, then host (p_ids are unique on a healthy ring). *)
let ring_compare a b =
  let c = Int.compare a.Peer.p_id b.Peer.p_id in
  if c <> 0 then c else Int.compare a.Peer.host b.Peer.host

(* The ring's membership rule, checked for each peer [register] or
   [unregister] saw since the last merge (all on hosts with a slot): a
   live t-peer registered on its host.  A t-peer that dies is
   unregistered with it, so those calls are the only ring changes. *)
let on_ring t p =
  Peer.is_t_peer p && p.Peer.alive
  && match t.slots.(p.Peer.host) with Some q -> q == p | None -> false

(* The first index of [ids] (sorted) holding a value >= [d_id].  Typed
   over ints so each probe is one machine compare, not a call into the
   runtime's polymorphic comparison. *)
let lower_bound (ids : int array) (d_id : int) =
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ids.(mid) >= d_id then hi := mid else lo := mid + 1
  done;
  !lo

(* Where the key (p_id, host) goes in the ring [sorted]/[ids]: the
   number of members ordered before it — a member's own index. *)
let ring_position sorted ids ~p_id ~host =
  let i = ref (lower_bound ids p_id) in
  while !i < Array.length ids && ids.(!i) = p_id && sorted.(!i).Peer.host < host do
    incr i
  done;
  !i

(* [p]'s index in the ring [sorted]/[ids]; -1 when not on it. *)
let index_in_ring sorted ids p =
  let i = ring_position sorted ids ~p_id:p.Peer.p_id ~host:p.Peer.host in
  if i < Array.length sorted && sorted.(i) == p then i else -1

(* Bring the sorted ring up to date with the registrations since the
   last call, in one pass that copies the unchanged runs of the old
   arrays into fresh ones (so a snapshot of the old arrays stays valid),
   and move the size-table entries along.  Each pending peer is checked
   against the membership rule now: a peer registered and unregistered
   in between, or registered twice, counts once.  [by_size] doubles as
   the membership mark — it holds exactly the hosts of ring members. *)
let t_peers t =
  if t.t_dirty then begin
    let old = t.t_sorted and old_ids = t.t_ids in
    let removed = ref [] in
    List.iter
      (fun p ->
        let host = p.Peer.host in
        if (not (on_ring t p)) && Size_heap.mem t.by_size host then begin
          let i = index_in_ring old old_ids p in
          if i >= 0 then begin
            Size_heap.remove t.by_size host;
            t.ring_left <- p :: t.ring_left;
            removed := i :: !removed
          end
        end)
      t.ring_dropped;
    let added = ref [] in
    List.iter
      (fun p ->
        let host = p.Peer.host in
        if on_ring t p && not (Size_heap.mem t.by_size host) then begin
          Size_heap.add t.by_size ~host ~size:(max 0 t.snet.(host)) ~p_id:p.Peer.p_id;
          added := p :: !added
        end)
      t.ring_joined;
    t.ring_dropped <- [];
    t.ring_joined <- [];
    let removed = Array.of_list !removed and added = Array.of_list !added in
    Array.sort Int.compare removed;
    Array.sort ring_compare added;
    let n = Array.length old - Array.length removed + Array.length added in
    (* the filler is overwritten below; an old member, not a just-joined
       peer, because an array past the minor heap's size limit filled
       with a young value makes the runtime run a minor collection
       first *)
    let sorted =
      if n = 0 then [||] else Array.make n (if Array.length old > 0 then old.(0) else added.(0))
    in
    let ids = Array.make n 0 in
    let src = ref 0 and dst = ref 0 in
    let copy_to stop =
      Array.blit old !src sorted !dst (stop - !src);
      Array.blit old_ids !src ids !dst (stop - !src);
      dst := !dst + (stop - !src);
      src := stop
    in
    let at =
      Array.map (fun p -> ring_position old old_ids ~p_id:p.Peer.p_id ~host:p.Peer.host) added
    in
    let ri = ref 0 and ai = ref 0 in
    while !ri < Array.length removed || !ai < Array.length added do
      let rpos = if !ri < Array.length removed then removed.(!ri) else max_int in
      let apos = if !ai < Array.length added then at.(!ai) else max_int in
      if apos <= rpos then begin
        copy_to apos;
        sorted.(!dst) <- added.(!ai);
        ids.(!dst) <- added.(!ai).Peer.p_id;
        incr dst;
        incr ai
      end
      else begin
        copy_to rpos;
        incr src;
        incr ri
      end
    done;
    copy_to (Array.length old);
    (* A removal joins two members that were not neighbours: log both,
       so the audit re-judges the segment between them.  (An added member
       is logged by [register].) *)
    if n > 0 then
      Array.iter
        (fun i ->
          let at = ring_position sorted ids ~p_id:old.(i).Peer.p_id ~host:old.(i).Peer.host in
          Peer.log_change sorted.((at + n - 1) mod n);
          Peer.log_change sorted.(at mod n))
        removed;
    t.t_sorted <- sorted;
    t.t_ids <- ids;
    t.t_dirty <- false
  end;
  t.t_sorted

(* Index of [d_id]'s successor in a ring's id array — the first p_id >=
   d_id, wrapping to index 0 past the highest p_id; [-1] on an empty
   ring.  The search runs over the flat int array, no pointer chasing
   per probe. *)
let successor_in ids d_id =
  let n = Array.length ids in
  if n = 0 then -1
  else
    let i = lower_bound ids d_id in
    if i = n then 0 else i

let successor_index t d_id =
  ignore (t_peers t);
  successor_in t.t_ids d_id

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
  (* [register] and [unregister] log the t-peer their own writes are for *)
  Peer.log_change tpeer;
  write_snet t host n

let snet_size_changed t tpeer ~delta =
  set_snet_size t tpeer (snet_size t tpeer + delta)

let snet_entry t host =
  if host < 0 || host >= Array.length t.snet then -1 else t.snet.(host)

let iter_snet_sizes t f =
  for host = 0 to Array.length t.snet - 1 do
    if t.snet.(host) >= 0 then f host t.snet.(host)
  done

let fingers_fresh t = not t.fingers_dirty

(* The first smallest s-network in ring order: the minimum of
   [by_size], found back on the ring by its (p_id, host) key. *)
let smallest_s_network t =
  let arr = t_peers t in
  let host = Size_heap.min t.by_size in
  if host < 0 then None
  else Some arr.(ring_position arr t.t_ids ~p_id:(Size_heap.p_id t.by_size host) ~host)

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

(* --- finger tables, refreshed when read ---

   A refresh point ([ensure_fingers] on a changed ring) stands for the
   eager refresh of every ring member's fingers from the ring as it is
   at that moment.  Rather than recompute T tables there, it keeps that
   ring (the arrays of [t_peers], which later changes replace rather
   than mutate) with one stale mark per member; [fingers] recomputes a
   member's table from the kept ring on its first read, and clears the
   mark.  Every table therefore holds, whenever it is read, what the
   eager schedule would have put there. *)

(* [write] is [Peer.set_finger] for an explicit refresh, which the
   audit must re-verify, and [Peer.refill_finger] for the lazy refill of
   a stale table, which writes what the eager schedule holds. *)
let fill_fingers t ~write peer sorted ids =
  if Array.length peer.Peer.fingers <> Id_space.bits then
    Peer.set_fingers peer (Array.make Id_space.bits None);
  for k = 0 to Id_space.bits - 1 do
    write peer k
      (match successor_in ids (Id_space.finger_start ~base:peer.Peer.p_id k) with
       | -1 -> None
       | i -> Some sorted.(i))
  done;
  t.finger_refreshes <- t.finger_refreshes + 1

let fingers t peer =
  let i = index_in_ring t.finger_sorted t.finger_ids peer in
  if i >= 0 && Bytes.get t.finger_stale i = '\001' then begin
    fill_fingers t ~write:Peer.refill_finger peer t.finger_sorted t.finger_ids;
    Bytes.set t.finger_stale i '\000'
  end;
  peer.Peer.fingers

let finger_refreshes t = t.finger_refreshes

let refresh_fingers_of t peer =
  let sorted = t_peers t in
  fill_fingers t ~write:Peer.set_finger peer sorted t.t_ids;
  let i = index_in_ring t.finger_sorted t.finger_ids peer in
  if i >= 0 then Bytes.set t.finger_stale i '\000'

let ensure_fingers t =
  if t.fingers_dirty then begin
    let sorted = t_peers t in
    (* A peer that left the ring since the last refresh point keeps that
       point's fingers for good (in-flight walks may still read them):
       settle them before the ring they come from is dropped. *)
    List.iter (fun p -> ignore (fingers t p : Peer.t option array)) t.ring_left;
    t.ring_left <- [];
    t.finger_sorted <- sorted;
    t.finger_ids <- t.t_ids;
    t.finger_stale <- Bytes.make (Array.length sorted) '\001';
    t.fingers_dirty <- false
  end

let stabilize_ring t =
  t.t_dirty <- true;
  t.fingers_dirty <- true;
  let arr = t_peers t in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    Peer.set_succ arr.(i) (Some arr.((i + 1) mod n));
    Peer.set_pred arr.(i) (Some arr.((i + n - 1) mod n))
  done;
  ensure_fingers t

let substitute_in_fingers t ~old_peer ~replacement =
  Array.iter
    (fun p ->
      let fingers = fingers t p in
      Array.iteri
        (fun k f ->
          match f with
          | Some q when q == old_peer -> Peer.set_finger p k (Some replacement)
          | Some _ | None -> ())
        fingers)
    (t_peers t)

let ring_index t p =
  let sorted = t_peers t in
  index_in_ring sorted t.t_ids p
