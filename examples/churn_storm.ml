(* Churn resilience: heartbeat-driven crash detection and recovery
   (paper Section 3.2.2).

   Heartbeats are ON: every peer broadcasts HELLOs, watchdog timers detect
   silent neighbours, orphaned subtrees rejoin through their t-peer, and
   crashed t-peers are replaced by the surviving member with the smallest
   address through the server election.  We crash 20% of the population in
   one storm and watch the overlay heal online — no offline repair call.

   Run with: dune exec examples/churn_storm.exe *)

module H = Hybrid_p2p.Hybrid
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config
module Data_ops = Hybrid_p2p.Data_ops
module Churn = P2p_workload.Churn
module Rng = P2p_sim.Rng
module Checks = P2p_audit.Checks

let () =
  let config =
    { Config.default with
      Config.heartbeats = true;
      hello_period = 50.0;
      hello_timeout = 180.0;
      lookup_timeout = 5_000.0;
    }
  in
  let h = H.create_star ~seed:13 ~peers:200 ~config () in
  ignore (H.grow h ~count:120 ~s_fraction:0.75 : Peer.t array);
  Printf.printf "Before the storm: %d peers, %d t-peers\n" (H.peer_count h)
    (H.t_peer_count h);

  (* share 300 files *)
  for i = 0 to 299 do
    H.insert h ~from:(H.random_peer h) ~key:(Printf.sprintf "file-%03d" i) ~value:"v" ()
  done;
  H.run_for h 2_000.0;
  Printf.printf "Stored %d items across the system\n" (H.total_items h);

  (* the storm: 20%% of peers crash simultaneously, no goodbye *)
  let rng = Rng.create 5 in
  let peers = Array.of_list (H.peers h) in
  let victims =
    Churn.crash_storm ~rng ~population:(Array.length peers) ~fraction:0.2
  in
  Array.iter (fun i -> H.crash h peers.(i)) victims;
  Printf.printf "\nCRASH STORM: %d peers vanish without notice\n" (Array.length victims);

  (* let the heartbeat machinery detect and heal *)
  H.run_for h 3_000.0;
  (match Checks.(to_result (final (H.world h))) with
   | Ok () -> print_endline "Online recovery complete: all invariants hold again."
   | Error e -> Printf.printf "still healing: %s\n" e);
  Printf.printf "Survivors: %d peers, %d t-peers, %d items survived\n"
    (H.peer_count h) (H.t_peer_count h) (H.total_items h);

  (* measure lookup failure on the healed overlay *)
  let ok = ref 0 and missed = ref 0 in
  for i = 0 to 299 do
    H.lookup h ~from:(H.random_peer h) ~key:(Printf.sprintf "file-%03d" i)
      ~on_result:(function
        | Data_ops.Found _ -> incr ok
        | Data_ops.Timed_out -> incr missed)
      ()
  done;
  H.run_for h 20_000.0;
  Printf.printf
    "\nPost-storm lookups: %d found, %d failed (%.1f%% failure — the data that\n\
     died with the crashed peers, as in the paper's Fig. 5b)\n"
    !ok !missed
    (100.0 *. float_of_int !missed /. 300.0)
