(* Quickstart: build a hybrid P2P system, share some files, look them up.

   Run with: dune exec examples/quickstart.exe *)

module H = Hybrid_p2p.Hybrid
module Peer = Hybrid_p2p.Peer
module Data_ops = Hybrid_p2p.Data_ops
module Metrics = P2p_net.Metrics
module Checks = P2p_audit.Checks

let () =
  (* A 100-peer system on a synthetic star underlay; 70% of peers join the
     unstructured tier (the paper's sweet spot for join latency). *)
  let h = H.create_star ~seed:2024 ~peers:128 () in
  ignore (H.grow h ~count:100 ~s_fraction:0.7 : Peer.t array);
  Printf.printf "System up: %d peers (%d t-peers on the ring, %d s-peers in trees)\n"
    (H.peer_count h) (H.t_peer_count h) (H.s_peer_count h);

  (* Share a few files from random peers. *)
  let files =
    [ ("ocaml-manual.pdf", "…"); ("holiday.jpg", "…"); ("talk.mp4", "…");
      ("thesis.tex", "…"); ("soundtrack.flac", "…") ]
  in
  List.iter
    (fun (key, value) ->
      H.insert h ~from:(H.random_peer h) ~key ~value
        ~on_done:(fun ~holder ~hops ->
          Printf.printf "  stored %-16s at peer #%-3d (%d hops)\n" key holder.Peer.host hops)
        ())
    files;
  H.run h;

  (* Look every file up from other random peers. *)
  print_endline "Lookups:";
  List.iter
    (fun (key, _) ->
      H.lookup h ~from:(H.random_peer h) ~key
        ~on_result:(function
          | Data_ops.Found { holder; latency; hops } ->
            Printf.printf "  found  %-16s at peer #%-3d in %.1f ms (%d hops)\n" key
              holder.Peer.host latency hops
          | Data_ops.Timed_out -> Printf.printf "  MISSED %s\n" key)
        ())
    files;
  H.lookup h ~from:(H.random_peer h) ~key:"does-not-exist.iso"
    ~on_result:(function
      | Data_ops.Found _ -> print_endline "  impossible!"
      | Data_ops.Timed_out -> print_endline "  does-not-exist.iso timed out, as expected")
    ();
  H.run h;

  let m = H.metrics h in
  Printf.printf
    "\nTotals: %d overlay messages, %d lookups (%d ok / %d failed), connum %d\n"
    (Metrics.messages m) (Metrics.lookups_issued m) (Metrics.lookups_succeeded m)
    (Metrics.lookups_failed m) (Metrics.connum m);
  match Checks.(to_result (final (H.world h))) with
  | Ok () -> print_endline "Invariants hold."
  | Error e -> Printf.printf "INVARIANT VIOLATION: %s\n" e
