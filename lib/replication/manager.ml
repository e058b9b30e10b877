module World = Hybrid_p2p.World
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config
module Data_store = Hybrid_p2p.Data_store
module Intern = Hybrid_p2p.Intern
module Summaries = Hybrid_p2p.Summaries
module Transport = P2p_transport.Transport
module Trace = P2p_sim.Trace
module Registry = P2p_obs.Registry
module Metrics = P2p_net.Metrics

let subsystem = "replication"

type t = {
  w : World.t;
  factor : int;
  copies_written : Registry.counter;
  promoted : Registry.counter;
  re_replicated : Registry.counter;
  bytes_re_replicated : Registry.counter;
  heal_passes : Registry.counter;
  anti_entropy_rounds : Registry.counter;
  digest_mismatches : Registry.counter;
  stale_pruned : Registry.counter;
  live_factor : Registry.gauge;
  mutable heal_timer : Transport.timer option;  (* debounced post-crash heal *)
  mutable ae_timer : Transport.timer option;  (* periodic anti-entropy *)
}

let factor t = t.factor

(* --- write-path fan-out ------------------------------------------------ *)

(* One copy per policy target, shipped as ordinary overlay messages
   attributed to the insert's op.  [replication_pending] brackets the
   flight so audit ticks that land mid-fan-out stay quiet. *)
let fan_out t ~op ~holder ~route_id ~key ~value =
  let w = t.w in
  let targets = Policy.targets w ~primary:holder in
  List.iter
    (fun target ->
      w.World.replication_pending <- w.World.replication_pending + 1;
      World.send_span w ?op ~tier:"replication" ~phase:"replicate_copy"
        ~src:holder ~dst:target (fun () ->
          w.World.replication_pending <- w.World.replication_pending - 1;
          if target.Peer.alive && not (Data_store.mem target.Peer.store ~key) then begin
            Data_store.insert_routed target.Peer.replicas ~route_id ~key ~value;
            (* replica copies count as flood-servable keys: the edge
               summaries must learn them or a pruned flood could miss the
               copy once the primary dies *)
            Summaries.note_stored w ~holder:target ~key;
            Registry.incr t.copies_written
          end))
    targets

(* --- heal: promote lost primaries, restore the factor ------------------ *)

(* Global key census over the world interner's key ids, in flat per-id
   arrays: every registered store is on that interner
   ({!World.register}), so a key has one id in every store.  A key's
   value and route come from its first copy in host order, each peer's
   store before its replicas; its primary holder is the last peer in
   host order whose store holds it.  The walk also drops replica copies
   shadowed by a primary at the same peer: such a copy is never the
   first one seen, and no other key's entries depend on it. *)
type census = {
  interner : Intern.t;
  route : int array;  (* route id of the first copy; -1 = key unseen *)
  value : string array;  (* value of the first copy *)
  primary : int array;  (* host of the last primary holder; -1 = none *)
  copies : int array;  (* replica copies not shadowed by a primary *)
}

let census w =
  let interner = World.interner w in
  let n = Intern.count interner in
  let c =
    {
      interner;
      route = Array.make n (-1);
      value = Array.make n "";
      primary = Array.make n (-1);
      copies = Array.make n 0;
    }
  in
  let first id vid route_id =
    if c.route.(id) < 0 then begin
      c.route.(id) <- route_id;
      c.value.(id) <- Intern.name interner vid
    end
  in
  World.iter_peers w (fun p ->
      Data_store.iter_id_items p.Peer.store (fun id vid route_id ->
          first id vid route_id;
          c.primary.(id) <- p.Peer.host);
      (* [p]'s store was just walked, so [p] leads a key's primaries
         exactly when its store holds the key; removing the copy under
         the walk only tombstones its slot *)
      Data_store.iter_id_items p.Peer.replicas (fun id vid route_id ->
          first id vid route_id;
          if c.primary.(id) = p.Peer.host then
            Data_store.remove p.Peer.replicas ~key:(Intern.name interner id)
          else c.copies.(id) <- c.copies.(id) + 1));
  c

(* [Policy.targets], computed once per home: every primary under one
   live home shares its list. *)
let targets_memo w =
  let homes = Array.make (World.host_bound w) None in
  let lists = Array.make (World.host_bound w) [] in
  fun primary ->
    match Policy.live_home w ~primary with
    | None -> []
    | Some home ->
      let h = home.Peer.host in
      if h >= Array.length homes then Policy.home_targets w ~home
      else begin
        match homes.(h) with
        | Some cached when cached == home -> lists.(h)
        | Some _ | None ->
          let targets = Policy.home_targets w ~home in
          homes.(h) <- Some home;
          lists.(h) <- targets;
          targets
      end

(* Synchronous durability pass over the whole system:

   1. every key whose primary copies all died is promoted from a
      surviving replica back into the current segment owner's store;
   2. every key regains a replica on each current policy target that
      lacks a copy (membership drift moves the target set — copies are
      re-established where reads will look for them, stale copies
      elsewhere are left to anti-entropy);
   3. replica copies co-located with a primary are dropped.

   Runs inside [Failure.repair] (offline path) and from the debounced
   post-crash timer (online path); mutates stores directly — by the time
   it runs, repair has already made structure consistent, and modelling
   the transfer traffic would only re-order identical end states.  Keys
   are handled in id order; a key's steps touch only that key's copies,
   so the order changes no store's contents.  Key strings are fetched
   only for the copies written. *)
let heal ?op t =
  let w = t.w in
  Registry.incr t.heal_passes;
  let own_op = op = None in
  let op =
    match op with
    | Some op -> op
    | None -> Trace.begin_op (World.trace w) ~time:(World.now w) ~kind:Trace.Replicate "heal"
  in
  let c = census w in
  let name = Intern.name c.interner in
  let targets_of = targets_memo w in
  let promoted = ref 0 and restored = ref 0 in
  let items = ref 0 and copies = ref 0 in
  for id = 0 to Array.length c.route - 1 do
    let route_id = c.route.(id) in
    if route_id >= 0 then begin
      (* 1. promotion, dropping a replica copy the new primary shadows *)
      let primary =
        if c.primary.(id) >= 0 then World.find_peer w ~host:c.primary.(id)
        else
          match World.oracle_owner w route_id with
          | None -> None
          | Some owner ->
            let key = name id in
            Data_store.insert_routed owner.Peer.store ~route_id ~key ~value:c.value.(id);
            if w.World.config.Config.s_style = Config.Bittorrent_tracker then
              Hashtbl.replace owner.Peer.tracker_index key owner;
            if Data_store.mem_id owner.Peer.replicas id then begin
              Data_store.remove owner.Peer.replicas ~key;
              c.copies.(id) <- c.copies.(id) - 1
            end;
            incr promoted;
            Registry.incr t.promoted;
            Some owner
      in
      match primary with
      | None -> ()
      | Some primary ->
        (* 2. restore the factor on the current targets *)
        List.iter
          (fun target ->
            if
              (not (Data_store.mem_id target.Peer.replicas id))
              && not (Data_store.mem_id target.Peer.store id)
            then begin
              let key = name id and value = c.value.(id) in
              Data_store.insert_routed target.Peer.replicas ~route_id ~key ~value;
              c.copies.(id) <- c.copies.(id) + 1;
              incr restored;
              Registry.incr t.re_replicated;
              Registry.incr t.bytes_re_replicated
                ~by:(String.length key + String.length value)
            end)
          (targets_of primary);
        incr items;
        copies := !copies + c.copies.(id)
    end
  done;
  World.mark_span w ~op ~tier:"replication" ~phase:"heal_step"
    (Printf.sprintf "promoted %d, re-replicated %d" !promoted !restored);
  Registry.set t.live_factor
    (if !items = 0 then 0.0 else float_of_int !copies /. float_of_int !items);
  (* the heal rewrote stores and replica shadows across arbitrary trees;
     cheaper to declare every edge summary stale than to track each move *)
  Summaries.invalidate_all w;
  if own_op then
    Trace.end_op (World.trace w) ~time:(World.now w) ~op
      "promoted %d, re-replicated %d" !promoted !restored

(* Online failure path: detections arrive once per watching neighbour and
   possibly for several victims of one storm; a single debounced timer
   turns them into one heal after the election/rejoin dust settles. *)
let on_failure t _dead =
  let w = t.w in
  match t.heal_timer with
  | Some timer -> Transport.reset timer
  | None ->
    w.World.replication_pending <- w.World.replication_pending + 1;
    t.heal_timer <-
      Some
        (World.one_shot w ~delay:w.World.config.Config.hello_timeout
           (fun () ->
             t.heal_timer <- None;
             w.World.replication_pending <- w.World.replication_pending - 1;
             heal t))

(* --- anti-entropy ------------------------------------------------------ *)

(* One round: every segment owner digests its s-network's primary items
   and sends the digest to each replica target; a target whose own
   replica digest disagrees pulls the item list and converges on it —
   missing copies are shipped, stale copies inside the segment pruned.
   Message-for-message this is the classic push-pull digest exchange,
   attributed to one [Anti_entropy] trace op per round. *)
let anti_entropy_round t =
  let w = t.w in
  Registry.incr t.anti_entropy_rounds;
  let op =
    Trace.begin_op (World.trace w) ~time:(World.now w) ~kind:Trace.Anti_entropy ""
  in
  let homes = Array.copy (World.t_peers w) in
  let segments = ref 0 and mismatches = ref 0 in
  Array.iter
    (fun home ->
      let left = Peer.segment_left home in
      let right = home.Peer.p_id in
      let items =
        List.concat_map
          (fun member -> Data_store.segment_items member.Peer.store ~left ~right)
          (Peer.tree_members home)
      in
      let digest = Data_store.digest_items items in
      List.iter
        (fun target ->
          incr segments;
          w.World.replication_pending <- w.World.replication_pending + 1;
          World.send_span w ~op ~tier:"replication" ~phase:"digest_push"
            ~src:home ~dst:target (fun () ->
              w.World.replication_pending <- w.World.replication_pending - 1;
              if
                target.Peer.alive
                && Data_store.segment_digest target.Peer.replicas ~left ~right
                   <> digest
              then begin
                incr mismatches;
                Registry.incr t.digest_mismatches;
                (* pull: the target asks for the list and converges *)
                w.World.replication_pending <- w.World.replication_pending + 1;
                World.send_span w ~op ~tier:"replication" ~phase:"digest_pull"
                  ~src:target ~dst:home (fun () ->
                    w.World.replication_pending <- w.World.replication_pending - 1;
                    if target.Peer.alive then begin
                      let wanted = Hashtbl.create (List.length items) in
                      List.iter
                        (fun (key, value, route_id) ->
                          Hashtbl.replace wanted key ();
                          match Data_store.find target.Peer.replicas ~key with
                          | Some v when v = value -> ()
                          | Some _ | None ->
                            if not (Data_store.mem target.Peer.store ~key) then begin
                              Data_store.insert_routed target.Peer.replicas ~route_id
                                ~key ~value;
                              Summaries.note_stored w ~holder:target ~key;
                              Registry.incr t.copies_written;
                              Registry.incr t.bytes_re_replicated
                                ~by:(String.length key + String.length value)
                            end)
                        items;
                      List.iter
                        (fun (key, _, _) ->
                          if not (Hashtbl.mem wanted key) then begin
                            Data_store.remove target.Peer.replicas ~key;
                            Registry.incr t.stale_pruned
                          end)
                        (Data_store.segment_items target.Peer.replicas ~left ~right)
                    end)
              end))
        (Policy.ring_successors w ~home ~factor:t.factor))
    homes;
  Trace.end_op (World.trace w) ~time:(World.now w) ~op
    "%d segment digests, %d mismatches" !segments !mismatches

(* Simulated ms between anti-entropy rounds.  A heal pass runs one hello
   timeout (1,600 ms by default) after a membership change; rounds about
   three of those apart let the pending heal land first, so a round
   digests the drift heals leave behind (dropped or stale copies)
   instead of racing them. *)
let anti_entropy_interval = 5_000.0

let start t =
  if t.factor > 0 && t.ae_timer = None then
    t.ae_timer <-
      Some (World.periodic t.w ~period:anti_entropy_interval (fun () -> anti_entropy_round t))

let stop t =
  match t.ae_timer with
  | Some timer ->
    Transport.cancel timer;
    t.ae_timer <- None
  | None -> ()

(* --- wiring ------------------------------------------------------------ *)

let install w =
  let reg = Metrics.registry w.World.metrics in
  let counter name = Registry.counter reg ~subsystem ~name in
  (* pre-register the read-path counter [Data_ops] bumps by name, so the
     report shows the zero row even before the first fallback hit *)
  ignore (counter "replica_hits" : Registry.counter);
  let t =
    {
      w;
      factor = w.World.config.Config.replication_factor;
      copies_written = counter "copies_written";
      promoted = counter "promoted";
      re_replicated = counter "re_replicated";
      bytes_re_replicated = counter "bytes_re_replicated";
      heal_passes = counter "heal_passes";
      anti_entropy_rounds = counter "anti_entropy_rounds";
      digest_mismatches = counter "digest_mismatches";
      stale_pruned = counter "stale_pruned";
      live_factor = Registry.gauge reg ~subsystem ~name:"live_replica_factor";
      heal_timer = None;
      ae_timer = None;
    }
  in
  Registry.set
    (Registry.gauge reg ~subsystem ~name:"replication_factor")
    (float_of_int t.factor);
  if t.factor > 0 then begin
    w.World.on_stored <- Some (fan_out t);
    w.World.on_peer_failure <- Some (on_failure t);
    w.World.on_repaired <- Some (fun ~op -> heal ?op t)
  end;
  t
