(* The benchmark's workloads: each one is a p2psim invocation users run,
   fixed here so that the CLI run and the in-process traced replay are
   built from the same description. *)

module Scenario = P2p_scenario.Scenario

type run_spec = {
  peers : int;
  ps : float;
  ttl : int option;  (** [None]: the CLI default *)
  items : int;
  lookups : int;
}

type churn_spec = {
  c_peers : int;
  replication : int;
  audit_interval : float;
  trace_sample : float;
  script : Scenario.action list;
}

type kind = Run of run_spec | Churn of churn_spec

type t = { name : string; kind : kind }

(* Each wave crashes [crashes] random peers one at a time, repairing
   after each, so no item ever loses all three copies at once.  (Waves of
   simultaneous crashes, crash:0.05, lose items on some seeds at 1000
   peers: a t-peer and both ring successors holding its replicas can go
   down together, and a run that loses data is not a valid run.) *)
let churn_script ~peers ~initial ~waves ~crashes ~wave_inserts ~wave_lookups ~final_lookups =
  let open Scenario in
  [ Join_many (peers, 0.8); Insert_items initial; Settle ]
  @ List.concat
      (List.init waves (fun _ ->
           List.concat (List.init crashes (fun _ -> [ Crash_random; Repair ]))
           @ [ Insert_items wave_inserts; Lookup_items wave_lookups; Settle ]))
  @ [ Anti_entropy 10000.0; Lookup_items final_lookups; Settle ]

let churn ~peers script =
  { c_peers = peers; replication = 2; audit_interval = 2000.0; trace_sample = 0.01; script }

(* Why each workload exists is recorded in BENCHMARK.json and README.md.
   The benchmark runs only workloads on which no operation fails, so a
   change that makes one fail shows as a non-zero [failed] count.
   run-200 and churn-100 are the drift guard's small cases for
   [dune runtest], not benchmark workloads. *)
let all =
  [
    (* TTL 6: with the default TTL 4, floods miss a few lookups in a
       million (3 of 600,000 at p_s = 0.8, 1 of 600,000 at p_s = 0.7,
       where 20,000 lookups draw keys with replacement) *)
    { name = "run-1k";
      kind = Run { peers = 1000; ps = 0.8; ttl = Some 6; items = 20000; lookups = 20000 } };
    (* Shipped defaults forward data linearly round the ring, so at 5000
       peers lookups time out on any large ring: 71% of them at the
       default p_s = 0.8 (~1000 t-peers), 45% at p_s = 0.9 (~480).
       p_s = 0.97 keeps the same underlay and Dijkstra set-up with ~150
       t-peers, and TTL 12 lets floods reach every member of the
       ~33-peer s-networks, so no operation fails. *)
    { name = "run-5k";
      kind = Run { peers = 5000; ps = 0.97; ttl = Some 12; items = 4000; lookups = 4000 } };
    { name = "churn-r2";
      kind =
        Churn
          (churn ~peers:1000
             (churn_script ~peers:1000 ~initial:6000 ~waves:4 ~crashes:10 ~wave_inserts:1000
                ~wave_lookups:3000 ~final_lookups:4000)) };
    { name = "run-200";
      kind = Run { peers = 200; ps = 0.7; ttl = None; items = 300; lookups = 300 } };
    { name = "churn-100";
      kind =
        Churn
          (churn ~peers:100
             (churn_script ~peers:100 ~initial:300 ~waves:1 ~crashes:3 ~wave_inserts:100
                ~wave_lookups:300 ~final_lookups:200)) };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let action_token = function
  | Scenario.Join_many (n, ps) -> Printf.sprintf "join:%d:%g" n ps
  | Scenario.Insert_items n -> Printf.sprintf "insert:%d" n
  | Scenario.Lookup_items n -> Printf.sprintf "lookup:%d" n
  | Scenario.Settle -> "settle"
  | Scenario.Crash_random -> "crash"
  | Scenario.Repair -> "repair"
  | Scenario.Anti_entropy ms -> Printf.sprintf "anti-entropy:%g" ms
  | Scenario.Advance _ | Scenario.Crash_fraction _ | Scenario.Leave_random | Scenario.Join_t
  | Scenario.Join_s ->
    invalid_arg "Workloads.action_token: action unused by the benchmark"

let run_args ~seed ~metrics_out s =
  [ "run"; "--seed"; string_of_int seed; "--peers"; string_of_int s.peers;
    "--ps"; Printf.sprintf "%g" s.ps; "--items"; string_of_int s.items;
    "--lookups"; string_of_int s.lookups; "--metrics-out"; metrics_out ]
  @ match s.ttl with Some ttl -> [ "--ttl"; string_of_int ttl ] | None -> []

let scenario_args ~seed ~trace_out ~metrics_out c script =
  [ "scenario"; "--seed"; string_of_int seed; "--peers"; string_of_int c.c_peers;
    "--replication"; string_of_int c.replication; "--assert-no-loss";
    "--audit-interval"; Printf.sprintf "%g" c.audit_interval;
    "--trace-sample"; Printf.sprintf "%g" c.trace_sample;
    "--trace-out"; trace_out; "--metrics-out"; metrics_out;
    "--script"; String.concat " " (List.map action_token script) ]

(* The set-up half of a churn workload: its leading join step alone. *)
let setup_script c =
  match c.script with (Scenario.Join_many _ as join) :: _ -> [ join ] | _ -> []
