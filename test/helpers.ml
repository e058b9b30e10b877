(* Shared fixtures for the hybrid-system test suites. *)

module H = Hybrid_p2p.Hybrid
module Config = Hybrid_p2p.Config
module Peer = Hybrid_p2p.Peer
module Data_ops = Hybrid_p2p.Data_ops
module World = Hybrid_p2p.World

let default_config = Config.default

(* A small system over a star underlay, grown to [n] peers with ratio
   [ps], settled to quiescence. *)
let star_system ?(config = default_config) ?snet_policy ?(seed = 42) ?(capacity = 600)
    ~n ~ps () =
  let h = H.create_star ~seed ~peers:capacity ?config:(Some config) ?snet_policy () in
  let members = H.grow h ~count:n ~s_fraction:ps in
  (h, members)

(* The end-of-run oracle: the audit catalogue with every in-flight
   tolerance off. *)
let final_invariants h = P2p_audit.Checks.(to_result (final (H.world h)))

let ok_invariants h =
  match final_invariants h with
  | Ok () -> ()
  | Error reason -> Alcotest.fail ("invariants: " ^ reason)

(* Insert [count] items from random peers and settle; returns the keys. *)
let insert_items h ~count =
  let keys = List.init count (fun i -> Printf.sprintf "item-%05d" i) in
  List.iter
    (fun key -> H.insert h ~from:(H.random_peer h) ~key ~value:("v:" ^ key) ())
    keys;
  H.run h;
  keys

(* Resolve one key synchronously (drives the engine). *)
let lookup_sync h ~from ~key ?ttl () =
  let result = ref None in
  H.lookup h ~from ~key ?ttl ~on_result:(fun r -> result := Some r) ();
  H.run h;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "lookup callback never fired"

let found = function Data_ops.Found _ -> true | Data_ops.Timed_out -> false

(* [n] completed ops on [trace], one root span each, labelled "1".."n". *)
let completed_ops trace n =
  let open P2p_sim in
  for i = 1 to n do
    let time = float_of_int i in
    let op = Trace.begin_op trace ~time ~kind:Trace.Insert (string_of_int i) in
    Trace.end_op trace ~time ~op "done"
  done

let span_labels spans = List.map (fun (s : P2p_sim.Trace.span) -> s.span_label) spans
