(* Tests for the paper's extension features: the Section-7 caching scheme,
   reflooding with increased TTL, random-walk s-network lookups,
   interest-category routing, keyword/partial search, and the
   capacity-dependent transmission delay used by the heterogeneity
   experiments. *)

open Helpers
module Cache = Hybrid_p2p.Cache
module Interest = Hybrid_p2p.Interest
module Metrics = P2p_net.Metrics
module Data_store = Hybrid_p2p.Data_store
module Rng = P2p_sim.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- Cache unit tests --- *)

let test_cache_basic () =
  let c = Cache.create ~capacity:2 in
  checki "empty" 0 (Cache.size c);
  Cache.put c ~now:0.0 ~lifetime:10.0 ~key:"a" ~value:"1";
  Alcotest.check (Alcotest.option Alcotest.string) "hit" (Some "1")
    (Cache.find c ~now:5.0 ~key:"a");
  Alcotest.check (Alcotest.option Alcotest.string) "expired" None
    (Cache.find c ~now:11.0 ~key:"a");
  checki "expired entry dropped" 0 (Cache.size c);
  checki "one hit" 1 (Cache.hits c);
  checki "one miss" 1 (Cache.misses c)

let test_cache_eviction () =
  let c = Cache.create ~capacity:2 in
  Cache.put c ~now:0.0 ~lifetime:10.0 ~key:"a" ~value:"1";
  Cache.put c ~now:0.0 ~lifetime:20.0 ~key:"b" ~value:"2";
  Cache.put c ~now:0.0 ~lifetime:30.0 ~key:"c" ~value:"3";
  checki "capacity respected" 2 (Cache.size c);
  Alcotest.check (Alcotest.option Alcotest.string) "soonest evicted" None
    (Cache.find c ~now:1.0 ~key:"a");
  Alcotest.check (Alcotest.option Alcotest.string) "latest kept" (Some "3")
    (Cache.find c ~now:1.0 ~key:"c")

let test_cache_refresh_no_evict () =
  let c = Cache.create ~capacity:2 in
  Cache.put c ~now:0.0 ~lifetime:10.0 ~key:"a" ~value:"1";
  Cache.put c ~now:0.0 ~lifetime:10.0 ~key:"b" ~value:"2";
  (* refreshing an existing key must not evict anything *)
  Cache.put c ~now:5.0 ~lifetime:10.0 ~key:"a" ~value:"1'";
  checki "still two" 2 (Cache.size c);
  Alcotest.check (Alcotest.option Alcotest.string) "refreshed" (Some "1'")
    (Cache.find c ~now:12.0 ~key:"a")

let test_cache_zero_capacity () =
  let c = Cache.create ~capacity:0 in
  Cache.put c ~now:0.0 ~lifetime:10.0 ~key:"a" ~value:"1";
  checki "disabled cache stores nothing" 0 (Cache.size c);
  Alcotest.check_raises "negative capacity" (Invalid_argument "Cache.create: negative capacity")
    (fun () -> ignore (Cache.create ~capacity:(-1) : Cache.t))

(* --- Caching inside the system --- *)

let test_lookup_fills_requester_cache () =
  let config = { default_config with Config.cache_capacity = 8 } in
  let h, _ = star_system ~config ~seed:60 ~n:80 ~ps:0.7 () in
  ignore (insert_items h ~count:50 : string list);
  let p = H.random_peer h in
  let r = lookup_sync h ~from:p ~key:"item-00007" () in
  checkb "found" true (found r);
  checkb "requester cached a copy" true
    (Peer.cached p ~now:(H.now h) ~key:"item-00007" <> None)

let test_cache_serves_repeat_lookups () =
  let config =
    { default_config with Config.cache_capacity = 8; cache_lifetime = 1e9 }
  in
  let h, _ = star_system ~config ~seed:61 ~n:80 ~ps:0.7 () in
  ignore (insert_items h ~count:50 : string list);
  let p = H.random_peer h in
  ignore (lookup_sync h ~from:p ~key:"item-00003" () : Data_ops.lookup_outcome);
  (* second lookup of the same key must be answered by p's own cache *)
  match lookup_sync h ~from:p ~key:"item-00003" () with
  | Data_ops.Found { holder; hops; _ } ->
    checkb "served locally" true (holder == p);
    checkb "instant" true (hops <= 1)
  | Data_ops.Timed_out -> Alcotest.fail "repeat lookup failed"

let test_cache_copies_expire () =
  let config =
    { default_config with Config.cache_capacity = 8; cache_lifetime = 10.0 }
  in
  let h, _ = star_system ~config ~seed:62 ~n:60 ~ps:0.6 () in
  ignore (insert_items h ~count:20 : string list);
  let p = H.random_peer h in
  ignore (lookup_sync h ~from:p ~key:"item-00001" () : Data_ops.lookup_outcome);
  H.run_for h 50.0;
  checkb "stale copy gone" true
    (Peer.cached p ~now:(H.now h) ~key:"item-00001" = None)

(* --- Reflooding --- *)

let deep_setup ~reflood_attempts ~seed =
  (* a deep item that a TTL-1 flood from the t-peer cannot reach *)
  let config =
    { default_config with
      Config.placement = Config.Store_at_tpeer;
      reflood_attempts;
      lookup_timeout = 2_000.0;
    }
  in
  let h, _ = star_system ~config ~seed ~n:80 ~ps:0.9 () in
  let w = H.world h in
  let owner =
    Option.get (World.oracle_owner w (P2p_hashspace.Key_hash.of_string "deep-item"))
  in
  let deep =
    List.fold_left
      (fun best p -> if Peer.depth p > Peer.depth best then p else best)
      owner (Peer.tree_members owner)
  in
  Data_store.insert deep.Peer.store ~key:"deep-item" ~value:"v";
  let other =
    List.find (fun p -> Option.get p.Peer.t_home != owner) (H.peers h)
  in
  (h, deep, other)

let test_reflood_rescues_deep_item () =
  let h, deep, other = deep_setup ~reflood_attempts:3 ~seed:63 in
  checkb "item is deep" true (Peer.depth deep >= 2);
  let r = lookup_sync h ~from:other ~key:"deep-item" ~ttl:1 () in
  checkb "reflood finds what ttl 1 missed" true (found r)

let test_no_reflood_fails () =
  let h, deep, other = deep_setup ~reflood_attempts:0 ~seed:63 in
  checkb "item is deep" true (Peer.depth deep >= 2);
  let r = lookup_sync h ~from:other ~key:"deep-item" ~ttl:1 () in
  checkb "single attempt misses" false (found r)

let test_reflood_counts_one_failure () =
  let config =
    { default_config with Config.reflood_attempts = 2; lookup_timeout = 1_000.0 }
  in
  let h, _ = star_system ~config ~seed:64 ~n:40 ~ps:0.5 () in
  let r = lookup_sync h ~from:(H.random_peer h) ~key:"never-inserted" () in
  checkb "finally times out" false (found r);
  checki "one issued" 1 (Metrics.lookups_issued (H.metrics h));
  checki "one failure despite three attempts" 1 (Metrics.lookups_failed (H.metrics h))

(* --- Random-walk s-networks --- *)

let test_random_walks_find_items () =
  let config = { default_config with Config.s_style = Config.Random_walks 8 } in
  let h, _ = star_system ~config ~seed:65 ~n:100 ~ps:0.7 () in
  let keys = insert_items h ~count:100 in
  let found_count = ref 0 in
  List.iter
    (fun key ->
      if found (lookup_sync h ~from:(H.random_peer h) ~key ~ttl:12 ()) then
        incr found_count)
    keys;
  checkb
    (Printf.sprintf "walkers find most items (%d/100)" !found_count)
    true (!found_count > 70)

let test_random_walks_cheaper_than_flood () =
  let connum_for s_style =
    let config = { default_config with Config.s_style } in
    let h, _ = star_system ~config ~seed:66 ~n:120 ~ps:0.9 () in
    ignore (insert_items h ~count:100 : string list);
    let before = Metrics.connum (H.metrics h) in
    for i = 0 to 49 do
      ignore
        (lookup_sync h ~from:(H.random_peer h)
           ~key:(Printf.sprintf "item-%05d" i) ~ttl:6 ()
          : Data_ops.lookup_outcome)
    done;
    Metrics.connum (H.metrics h) - before
  in
  let flood = connum_for Config.Flooding_tree in
  let walks = connum_for (Config.Random_walks 2) in
  checkb
    (Printf.sprintf "2 walkers (%d contacts) cheaper than flood (%d)" walks flood)
    true (walks < flood)

let test_random_walks_config_validated () =
  let config = { default_config with Config.s_style = Config.Random_walks 0 } in
  checkb "zero walkers rejected" true (Result.is_error (Config.validate config))

(* --- Interest routing --- *)

let test_interest_route_id_deterministic () =
  checki "same category same id" (Interest.route_id 3) (Interest.route_id 3);
  checkb "categories differ" true (Interest.route_id 0 <> Interest.route_id 1)

let test_interest_items_stay_local () =
  let h =
    H.create_star ~seed:67 ~peers:100 ~snet_policy:Hybrid_p2p.World.By_interest ()
  in
  (* category homes pinned at their routing IDs *)
  for host = 0 to 1 do
    ignore
      (H.join h ~host ~role:Peer.T_peer ~p_id:(Interest.route_id host) () : Peer.t);
    H.run h
  done;
  let members =
    List.init 20 (fun i ->
        let p = H.join h ~host:(2 + i) ~role:Peer.S_peer ~interest:(i mod 2) () in
        H.run h;
        p)
  in
  (* publish from a category-0 peer with the category route *)
  let publisher = List.find (fun p -> p.Peer.interest = Some 0) members in
  let holder = ref None in
  H.insert h ~from:publisher ~key:"cat0-file" ~value:"v"
    ~route_id:(Interest.route_id 0)
    ~on_done:(fun ~holder:hl ~hops:_ -> holder := Some hl)
    ();
  H.run h;
  (match !holder with
   | Some holder ->
     checkb "item stays in category-0's s-network" true
       (Option.get holder.Peer.t_home == Option.get publisher.Peer.t_home)
   | None -> Alcotest.fail "insert never completed");
  (* a category-0 requester finds it without leaving its s-network *)
  let requester =
    List.find (fun p -> p.Peer.interest = Some 0 && p != publisher) members
  in
  let before = Metrics.connum (H.metrics h) in
  let r = ref None in
  H.lookup h ~from:requester ~key:"cat0-file" ~route_id:(Interest.route_id 0) ~ttl:12
    ~on_result:(fun x -> r := Some x) ();
  H.run h;
  checkb "found" true (match !r with Some (Data_ops.Found _) -> true | _ -> false);
  let contacts = Metrics.connum (H.metrics h) - before in
  checkb
    (Printf.sprintf "contacts (%d) bounded by the category s-network" contacts)
    true (contacts <= 15)

(* --- Keyword search --- *)

let test_keyword_search_finds_matches () =
  let h =
    H.create_star ~seed:68 ~peers:100 ~snet_policy:Hybrid_p2p.World.By_interest ()
  in
  ignore (H.join h ~host:0 ~role:Peer.T_peer ~p_id:(Interest.route_id 0) () : Peer.t);
  H.run h;
  let members =
    List.init 15 (fun i ->
        let p = H.join h ~host:(1 + i) ~role:Peer.S_peer ~interest:0 () in
        H.run h;
        p)
  in
  let rng = Rng.create 1 in
  List.iteri
    (fun i title ->
      let publisher = Rng.pick_list rng members in
      ignore i;
      H.insert h ~from:publisher ~key:title ~value:"v"
        ~route_id:(Interest.route_id 0) ())
    [ "beatles-yesterday.mp3"; "beatles-help.mp3"; "stones-angie.mp3";
      "beatles-let-it-be.mp3"; "dylan-hurricane.mp3" ];
  H.run h;
  let results = ref None in
  H.keyword_search h ~from:(List.hd members) ~substring:"beatles"
    ~route_id:(Interest.route_id 0) ~ttl:12
    ~on_result:(fun ms -> results := Some ms)
    ();
  H.run h;
  match !results with
  | None -> Alcotest.fail "keyword search never reported"
  | Some ms ->
    let keys =
      List.sort_uniq compare (List.map (fun m -> m.Data_ops.match_key) ms)
    in
    checki "all three beatles tracks" 3 (List.length keys);
    checkb "no false positives" true
      (List.for_all
         (fun k ->
           List.mem k
             [ "beatles-yesterday.mp3"; "beatles-help.mp3"; "beatles-let-it-be.mp3" ])
         keys)

let test_keyword_search_empty_result () =
  let h, _ = star_system ~seed:69 ~n:40 ~ps:0.7 () in
  ignore (insert_items h ~count:20 : string list);
  let results = ref None in
  H.keyword_search h ~from:(H.random_peer h) ~substring:"no-such-token"
    ~route_id:(P2p_hashspace.Key_hash.of_string "anything")
    ~on_result:(fun ms -> results := Some ms)
    ();
  H.run h;
  checkb "reports empty list" true (!results = Some [])

(* --- Transmission delay --- *)

let test_transmission_delay_slows_slow_links () =
  let module Graph = P2p_topology.Graph in
  let module Routing = P2p_topology.Routing in
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 ~latency:1.0;
  Graph.add_edge g 1 2 ~latency:1.0;
  let config = { default_config with Config.transmission_ms = 10.0 } in
  let h = Hybrid_p2p.Hybrid.create ~seed:70 ~routing:(Routing.create g) ~config () in
  ignore (H.join h ~host:0 ~role:Peer.T_peer ~link_capacity:10.0 () : Peer.t);
  H.run h;
  ignore (H.join h ~host:1 ~role:Peer.S_peer ~link_capacity:1.0 () : Peer.t);
  H.run h;
  let u = (Hybrid_p2p.Hybrid.world h).Hybrid_p2p.World.underlay in
  (* fast-fast pair: 10/10 = 1ms extra; fast-slow: 10/1 = 10ms extra;
     each on top of the path's latency and 0.1 ms of processing *)
  checkf "fast-slow penalized" 11.1 (P2p_net.Underlay.delay u ~src:0 ~dst:1);
  ignore (H.join h ~host:2 ~role:Peer.S_peer ~link_capacity:10.0 () : Peer.t);
  H.run h;
  checkf "fast-fast cheap" 3.1 (P2p_net.Underlay.delay u ~src:0 ~dst:2)

let suite =
  [
    Alcotest.test_case "cache: basics" `Quick test_cache_basic;
    Alcotest.test_case "cache: eviction" `Quick test_cache_eviction;
    Alcotest.test_case "cache: refresh without evict" `Quick test_cache_refresh_no_evict;
    Alcotest.test_case "cache: zero capacity" `Quick test_cache_zero_capacity;
    Alcotest.test_case "cache: lookup fills requester cache" `Quick
      test_lookup_fills_requester_cache;
    Alcotest.test_case "cache: repeat lookups served locally" `Quick
      test_cache_serves_repeat_lookups;
    Alcotest.test_case "cache: copies expire" `Quick test_cache_copies_expire;
    Alcotest.test_case "reflood: rescues deep items" `Quick test_reflood_rescues_deep_item;
    Alcotest.test_case "reflood: off means miss" `Quick test_no_reflood_fails;
    Alcotest.test_case "reflood: one failure recorded" `Quick test_reflood_counts_one_failure;
    Alcotest.test_case "random walks: find items" `Quick test_random_walks_find_items;
    Alcotest.test_case "random walks: cheaper than flood" `Quick
      test_random_walks_cheaper_than_flood;
    Alcotest.test_case "random walks: config validated" `Quick
      test_random_walks_config_validated;
    Alcotest.test_case "interest: route id" `Quick test_interest_route_id_deterministic;
    Alcotest.test_case "interest: items stay local" `Quick test_interest_items_stay_local;
    Alcotest.test_case "keyword search: matches" `Quick test_keyword_search_finds_matches;
    Alcotest.test_case "keyword search: empty" `Quick test_keyword_search_empty_result;
    Alcotest.test_case "transmission delay by capacity" `Quick
      test_transmission_delay_slows_slow_links;
  ]
