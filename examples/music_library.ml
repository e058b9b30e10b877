(* A shared music library: keyword search over an interest-based
   s-network, plus the Section-7 caching scheme absorbing a flash crowd.

   Run with: dune exec examples/music_library.exe *)

module H = Hybrid_p2p.Hybrid
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config
module Data_ops = Hybrid_p2p.Data_ops
module Interest = Hybrid_p2p.Interest
module Cache = Hybrid_p2p.Cache
module Rng = P2p_sim.Rng

let music = 0 (* the interest category everyone here shares *)

let tracks =
  [ "beatles - yesterday.flac"; "beatles - help.flac";
    "beatles - let it be.flac"; "miles davis - so what.flac";
    "miles davis - blue in green.flac"; "nina simone - sinnerman.flac";
    "radiohead - pyramid song.flac"; "radiohead - reckoner.flac" ]

let () =
  let config =
    { Config.default with
      Config.default_ttl = 10;
      cache_capacity = 16;
      cache_lifetime = 60_000.0;
    }
  in
  let h =
    H.create_star ~seed:11 ~peers:128 ~config
      ~snet_policy:Hybrid_p2p.World.By_interest ()
  in
  (* the music s-network: its t-peer sits exactly at the category's
     routing ID, plus a few backbone t-peers *)
  ignore (H.join h ~host:0 ~role:Peer.T_peer ~p_id:(Interest.route_id music) () : Peer.t);
  H.run h;
  for host = 1 to 8 do
    ignore (H.join h ~host ~role:Peer.T_peer () : Peer.t);
    H.run h
  done;
  let listeners =
    List.init 60 (fun i ->
        let p = H.join h ~host:(9 + i) ~role:Peer.S_peer ~interest:music () in
        H.run h;
        p)
  in
  Printf.printf "library up: %d peers, %d in the music s-network\n\n"
    (H.peer_count h) (List.length listeners + 1);

  (* everyone shares some tracks *)
  let rng = Rng.create 3 in
  List.iter
    (fun title ->
      let publisher = Rng.pick_list rng listeners in
      H.insert h ~from:publisher ~key:title ~value:"<flac bits>"
        ~route_id:(Interest.route_id music) ())
    tracks;
  H.run h;

  (* keyword search: "give me everything by radiohead" *)
  H.keyword_search h ~from:(List.hd listeners) ~substring:"radiohead"
    ~route_id:(Interest.route_id music)
    ~on_result:(fun matches ->
      Printf.printf "keyword search \"radiohead\" -> %d matches:\n" (List.length matches);
      List.iter
        (fun m ->
          Printf.printf "  %-34s held by peer #%d\n" m.Data_ops.match_key
            m.Data_ops.match_holder.Peer.host)
        matches)
    ();
  H.run h;

  (* flash crowd: every listener wants "sinnerman" at once — twice *)
  let hot = "nina simone - sinnerman.flac" in
  let served = Hashtbl.create 16 in
  let round label =
    List.iter
      (fun from ->
        H.lookup h ~from ~key:hot ~route_id:(Interest.route_id music)
          ~on_result:(function
            | Data_ops.Found { holder; _ } ->
              Hashtbl.replace served holder.Peer.host
                (1 + Option.value ~default:0 (Hashtbl.find_opt served holder.Peer.host))
            | Data_ops.Timed_out -> ())
          ())
      listeners;
    H.run h;
    let max_load = Hashtbl.fold (fun _ n acc -> max n acc) served 0 in
    Printf.printf "%s: hottest peer served %d of the %d replies so far\n" label max_load
      (Hashtbl.fold (fun _ n acc -> acc + n) served 0)
  in
  Printf.printf "\nflash crowd for %S:\n" hot;
  round "round 1 (cold caches)";
  round "round 2 (warm caches)";
  let cached =
    List.length
      (List.filter
         (fun p -> Peer.cached p ~now:(H.now h) ~key:hot <> None)
         listeners)
  in
  Printf.printf
    "%d listeners now hold a cached copy — the Section-7 scheme at work.\n" cached
