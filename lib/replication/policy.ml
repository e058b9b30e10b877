module World = Hybrid_p2p.World
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config

(* [home]'s index in the sorted oracle ring [arr], or [-1]: a binary
   search on its p_id, then a scan by identity among the run of t-peers
   sharing that p_id. *)
let rec find_from arr home i =
  if i >= Array.length arr || arr.(i).Peer.p_id <> home.Peer.p_id then -1
  else if arr.(i) == home then i
  else find_from arr home (i + 1)

let ring_index w arr home =
  match World.successor_index w home.Peer.p_id with -1 -> -1 | i -> find_from arr home i

(* The next [factor] live t-peers clockwise from [home] on the sorted
   oracle ring, excluding [home] itself.  With fewer than [factor + 1]
   t-peers the list is simply shorter: the ID space has no more distinct
   segments to copy into. *)
let ring_successors w ~home ~factor =
  let arr = World.t_peers w in
  let n = Array.length arr in
  let idx = ring_index w arr home in
  if idx < 0 || n <= 1 then []
  else List.init (min factor (n - 1)) (fun k -> arr.((idx + k + 1) mod n))

let live_home w ~primary =
  if w.World.config.Config.replication_factor <= 0 || not primary.Peer.alive then None
  else
    match primary.Peer.t_home with
    | Some home as live when home.Peer.alive -> live
    | Some _ | None -> None

let home_targets w ~home =
  ring_successors w ~home ~factor:w.World.config.Config.replication_factor

let targets w ~primary =
  match live_home w ~primary with Some home -> home_targets w ~home | None -> []

(* [List.length (targets w ~primary)], without building the list. *)
let expected_copies w ~primary =
  match live_home w ~primary with
  | None -> 0
  | Some home ->
    let arr = World.t_peers w in
    let n = Array.length arr in
    if n <= 1 || ring_index w arr home < 0 then 0
    else min w.World.config.Config.replication_factor (n - 1)
