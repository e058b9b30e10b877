(* Reference implementation of the replication heal
   ([P2p_replication.Manager.heal]): a string-keyed census of every copy
   in one [Hashtbl], a per-key record of its primary and replica holders
   as lists, and [Policy.targets] recomputed for every key.  Slow, and
   written for plainness: the tests hold the interned-id heal to exactly
   its stores, replica stores and [replication/*] metrics. *)

module World = Hybrid_p2p.World
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config
module Data_store = Hybrid_p2p.Data_store
module Summaries = Hybrid_p2p.Summaries
module Policy = P2p_replication.Policy
module Registry = P2p_obs.Registry
module Metrics = P2p_net.Metrics

type census_entry = {
  value : string;
  route_id : P2p_hashspace.Id_space.id;
  mutable primaries : Peer.t list;  (* newest first: the last in host order leads *)
  mutable replica_holders : Peer.t list;
}

(* The value and route of a key come from its first copy in host order,
   each peer's store before its replicas. *)
let census w =
  let tbl : (string, census_entry) Hashtbl.t = Hashtbl.create 1024 in
  let learn ~primary p ~key ~value ~route_id =
    let e =
      match Hashtbl.find_opt tbl key with
      | Some e -> e
      | None ->
        let e = { value; route_id; primaries = []; replica_holders = [] } in
        Hashtbl.add tbl key e;
        e
    in
    if primary then e.primaries <- p :: e.primaries
    else e.replica_holders <- p :: e.replica_holders
  in
  World.iter_peers w (fun p ->
      Data_store.iter p.Peer.store (fun ~key ~value ~route_id ->
          learn ~primary:true p ~key ~value ~route_id);
      Data_store.iter p.Peer.replicas (fun ~key ~value ~route_id ->
          learn ~primary:false p ~key ~value ~route_id));
  tbl

(* One pass: promote keys with no primary into the segment owner's
   store, drop replica copies shadowed by a primary at the same peer,
   and write a replica on each policy target of the leading primary
   that holds no copy; then publish the live replica factor.  Bumps the
   manager's counters by name in [w]'s registry. *)
let heal w =
  let reg = Metrics.registry w.World.metrics in
  let counter name = Registry.counter reg ~subsystem:"replication" ~name in
  Registry.incr (counter "heal_passes");
  let tbl = census w in
  Hashtbl.iter
    (fun key e ->
      (if e.primaries = [] then
         match World.oracle_owner w e.route_id with
         | None -> ()
         | Some owner ->
           Data_store.insert_routed owner.Peer.store ~route_id:e.route_id ~key
             ~value:e.value;
           if w.World.config.Config.s_style = Config.Bittorrent_tracker then
             Peer.set_tracked owner key owner;
           e.primaries <- [ owner ];
           Registry.incr (counter "promoted"));
      match e.primaries with
      | [] -> ()
      | primary :: _ ->
        let shadowed, holders =
          List.partition (fun p -> List.memq p e.primaries) e.replica_holders
        in
        List.iter (fun p -> Data_store.remove p.Peer.replicas ~key) shadowed;
        e.replica_holders <- holders;
        List.iter
          (fun target ->
            if
              (not (List.memq target e.replica_holders))
              && not (Data_store.mem target.Peer.store ~key)
            then begin
              Data_store.insert_routed target.Peer.replicas ~route_id:e.route_id ~key
                ~value:e.value;
              e.replica_holders <- target :: e.replica_holders;
              Registry.incr (counter "re_replicated");
              Registry.incr (counter "bytes_re_replicated")
                ~by:(String.length key + String.length e.value)
            end)
          (Policy.targets w ~primary))
    tbl;
  let items = ref 0 and copies = ref 0 in
  Hashtbl.iter
    (fun _ e ->
      if e.primaries <> [] then begin
        incr items;
        copies := !copies + List.length e.replica_holders
      end)
    tbl;
  Registry.set
    (Registry.gauge reg ~subsystem:"replication" ~name:"live_replica_factor")
    (if !items = 0 then 0.0 else float_of_int !copies /. float_of_int !items);
  Summaries.invalidate_all w
