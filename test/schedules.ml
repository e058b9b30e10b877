(* A delay-bounded schedule search for membership races.

   At small scope every delivery order the protocol can see is a
   schedule the simulator can replay: a run is fixed by its seed, so
   re-running the same seed with a few chosen messages slowed down
   explores one more order, exactly.  The search numbers every message
   sent after a scenario's set-up, and re-runs the scenario from scratch
   once per delay set — every set of at most [bound] message numbers —
   with each message in the set delayed by [delta] ms.  A delayed message
   is a legal slow link, so any run the oracle rejects is a real defect,
   and its seed and delay set replay it.  (Delay-bounded scheduling:
   Emmi, Qadeer and Rakamarić, POPL 2011.)

   The scenario is a segment under concurrent membership change: a
   star of 64 hosts, t-peers at p_id 0, 1e6, 2e6 and 3e6 and six s-peers,
   then [k] t-peers joining the segment (1e6, 2e6], the first [j] of
   them leaving from their join's [on_done]. *)

open Helpers

(* Every message's propagation goes through the underlay's one
   per-message hook, [Underlay.set_transmission_delay], called once per
   send.  Sharing it is safe here: [Hybrid.create_star] runs at
   [transmission_ms = 0], so [Hybrid.create] installs no bandwidth hook
   of its own, and only tests call [Underlay.delay], the hook's one
   other caller. *)
let number_messages h ~delays ~delta =
  let sent = ref 0 in
  P2p_net.Underlay.set_transmission_delay (H.world h).World.underlay (fun ~src:_ ~dst:_ ->
      let i = !sent in
      incr sent;
      if List.mem i delays then delta else 0.0);
  sent

(* The set-up, each join and s-peer settled before the next. *)
let join_leave_setup ~seed =
  let h = H.create_star ~seed ~peers:64 () in
  List.iteri
    (fun host p_id ->
      ignore (H.join h ~host ~p_id ~role:Peer.T_peer () : Peer.t);
      H.run h)
    [ 0; 1_000_000; 2_000_000; 3_000_000 ];
  for host = 4 to 9 do
    ignore (H.join h ~host ~role:Peer.S_peer () : Peer.t);
    H.run h
  done;
  h

(* Starts the [k] joins, the first [j] leaving once joined; returns the
   joiners and how often each one's join and leave [on_done] fired. *)
let start_joins h ~seed ~k ~j =
  let rng = P2p_sim.Rng.create seed in
  let joined = Array.make k 0 and left = Array.make k 0 in
  let joiners =
    Array.init k (fun i ->
        H.join h ~host:(10 + i)
          ~p_id:(1_000_000 + P2p_sim.Rng.int rng 1_000_000)
          ~role:Peer.T_peer
          ~on_done:(fun o ->
            joined.(i) <- joined.(i) + 1;
            if i < j then H.leave h o.H.peer ~on_done:(fun () -> left.(i) <- left.(i) + 1) ())
          ())
  in
  (joiners, joined, left)

(* Simulated time a run gets: the scenario settles in tens of ms, and a
   run that never quiesces still stops here. *)
let cap_ms = 5_000.0

(* One run under [delays]: the messages it sent, and what the oracle
   found wrong — [Checks.final]'s first error, an [on_done] that fired
   other than once, or events still queued at the cap. *)
let run ~seed ~k ~j ~delta delays =
  let h = join_leave_setup ~seed in
  let sent = number_messages h ~delays ~delta in
  let _, joined, left = start_joins h ~seed ~k ~j in
  H.run_for h cap_ms;
  let fault =
    match final_invariants h with
    | Error e -> Some e
    | Ok () ->
      let once = ref None in
      for i = k - 1 downto 0 do
        if joined.(i) <> 1 then once := Some (Printf.sprintf "join %d done %d times" i joined.(i))
        else if i < j && left.(i) <> 1 then
          once := Some (Printf.sprintf "leave %d done %d times" i left.(i))
      done;
      (match !once with
       | Some _ -> !once
       | None ->
         let pending = P2p_sim.Engine.pending (H.engine h) in
         if pending > 0 then Some (Printf.sprintf "%d events queued at the cap" pending) else None)
  in
  (!sent, fault)

(* Every set of [size] message numbers in [from, n), ascending, in
   lexicographic order. *)
let rec delay_sets ~n ~size ~from =
  if size = 0 then [ [] ]
  else
    List.concat
      (List.init (max 0 (n - from)) (fun d ->
           let i = from + d in
           List.map (fun rest -> i :: rest) (delay_sets ~n ~size:(size - 1) ~from:(i + 1))))

(* Every delay set of size 1 to [bound] over message numbers [0, n), in
   a fixed order: by size, then lexicographically. *)
let by_size ~n ~bound = List.concat (List.init bound (fun s -> delay_sets ~n ~size:(s + 1) ~from:0))

(* The search on one seed: the default order first, then each delay
   set over its messages; the first delay set the oracle rejects, and
   why. *)
let search ~seed ~k ~j ?(bound = 2) ?(delta = 50.0) () =
  let n, fault = run ~seed ~k ~j ~delta [] in
  match fault with
  | Some f -> Some ([], f)
  | None ->
    List.find_map
      (fun delays -> Option.map (fun f -> (delays, f)) (snd (run ~seed ~k ~j ~delta delays)))
      (by_size ~n ~bound)

let describe ~seed (delays, fault) =
  Printf.sprintf "seed %d, delays [%s]: %s" seed
    (String.concat "; " (List.map string_of_int delays))
    fault

(* --- committed cases --- *)

(* A ring change is clean under every schedule with at most two
   messages delayed by 50 ms: seeds [first] and then 1 to [seeds], [k]
   joins, the first [j] of them leaving; ~70 runs a seed for two joins,
   ~155 for three. *)
let clean_schedules ?first ~k ~j ~seeds () =
  let check seed =
    match search ~seed ~k ~j () with
    | None -> ()
    | Some b -> Alcotest.failf "k=%d, j=%d: %s" k j (describe ~seed b)
  in
  Option.iter check first;
  for seed = 1 to seeds do
    if Some seed <> first then check seed
  done

(* The seed on which a leave that rewires its predecessor without taking
   the predecessor's segment lock breaks the ring.  Its default order
   passes; with messages 1 and 4 delayed, the predecessor runs the other
   joiner's join triangle while the leave rewires it, and that joiner is
   left with the dead leaver as its successor.  The leave cases search
   this seed first, so dropping the lock in [T_network.leave] fails them
   at once. *)
let teeth_seed = 8

let suite =
  [
    Alcotest.test_case "2 joins: every schedule with <= 2 delays" `Quick
      (clean_schedules ~k:2 ~j:0 ~seeds:100);
    Alcotest.test_case "3 joins: every schedule with <= 2 delays" `Quick
      (clean_schedules ~k:3 ~j:0 ~seeds:60);
    Alcotest.test_case "leave among two joins: every schedule with <= 2 delays" `Quick
      (clean_schedules ~first:teeth_seed ~k:2 ~j:1 ~seeds:100);
    Alcotest.test_case "leave among three joins: every schedule with <= 2 delays" `Quick
      (clean_schedules ~first:teeth_seed ~k:3 ~j:1 ~seeds:30);
  ]
