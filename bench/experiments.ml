(* Shared experiment infrastructure for regenerating the paper's tables
   and figures.

   Every experiment builds a hybrid system over a GT-ITM-style
   transit-stub topology (the paper's setup: 1,000 physical nodes, one
   peer per node), pre-assigns t/s roles according to the system parameter
   [p_s], joins everyone, inserts a corpus of items from random peers and
   then drives lookups, collecting the metrics the paper reports. *)

module H = Hybrid_p2p.Hybrid
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config
module World = Hybrid_p2p.World
module Data_ops = Hybrid_p2p.Data_ops
module Rng = P2p_sim.Rng
module Transit_stub = P2p_topology.Transit_stub
module Landmark = P2p_topology.Landmark
module Metrics = P2p_net.Metrics
module Keys = P2p_workload.Keys
module Churn = P2p_workload.Churn
module Summary = P2p_stats.Summary

type scale = {
  label : string;
  topology : Transit_stub.params;
  n_items : int;
  n_lookups : int;
}

(* The paper's full setup: 1,000 nodes. *)
let paper_scale =
  {
    label = "paper (1000 peers)";
    topology = Transit_stub.default_params;
    n_items = 10_000;
    n_lookups = 10_000;
  }

(* A quick setup for smoke runs: ~400 nodes, lighter workload. *)
let small_scale =
  {
    label = "small (384 peers)";
    topology =
      {
        Transit_stub.default_params with
        Transit_stub.transit_domains = 3;
        transit_nodes = 4;
        stub_domains_per_node = 5;
        stub_nodes = 6;
      };
    n_items = 3_000;
    n_lookups = 2_000;
  }

type built = {
  h : H.t;
  peers : Peer.t array;
  items : Keys.item array;
  rng : Rng.t; (* workload stream, independent of the system's rng *)
}

(* Capacity classes: 1/3 high, 1/3 medium, 1/3 low; highest is 10x the
   lowest (paper Section 6). *)
let capacity_of_host host =
  match host mod 3 with 0 -> 10.0 | 1 -> 3.0 | _ -> 1.0

(* Role pre-assignment.  [heterogeneity]: peers with the highest link
   capacities become the t-peers (Section 5.1); otherwise roles are
   random with P(s-peer) = ps. *)
let assign_roles ~rng ~ps ~heterogeneity hosts =
  let n = Array.length hosts in
  let t_quota = max 1 (int_of_float (Float.round ((1.0 -. ps) *. float_of_int n))) in
  if heterogeneity then begin
    let order = Array.copy hosts in
    (* sort by capacity descending, shuffling within ties *)
    Rng.shuffle rng order;
    Array.sort (fun a b -> compare (capacity_of_host b) (capacity_of_host a)) order;
    let t_set = Hashtbl.create t_quota in
    Array.iteri (fun i host -> if i < t_quota then Hashtbl.replace t_set host ()) order;
    Array.map (fun host -> if Hashtbl.mem t_set host then Peer.T_peer else Peer.S_peer) hosts
  end
  else begin
    (* exactly t_quota t-peers, placed uniformly at random *)
    let roles = Array.make n Peer.S_peer in
    let index = Array.init n (fun i -> i) in
    Rng.shuffle rng index;
    for k = 0 to t_quota - 1 do
      roles.(index.(k)) <- Peer.T_peer
    done;
    roles
  end

let build ?(config = Config.paper) ?(seed = 1) ?(ps = 0.5) ?(heterogeneity = false)
    ?(landmarks = 0) ~scale () =
  let rng = Rng.create (seed * 7919) in
  let topo = Transit_stub.generate ~rng:(Rng.create (seed * 31 + 7)) scale.topology in
  let routing = P2p_topology.Routing.create topo.Transit_stub.graph in
  let snet_policy =
    if landmarks > 0 then begin
      let marks =
        Landmark.select_landmarks ~rng:(Rng.create (seed * 13 + 3)) routing
          ~count:landmarks
      in
      Some (World.By_cluster (Landmark.create routing ~landmarks:marks ~levels:[ 10.0; 40.0 ]))
    end
    else None
  in
  let config =
    if heterogeneity then { config with Config.link_usage_aware = true } else config
  in
  let h = H.create ~seed ~routing ~config ?snet_policy () in
  let n = P2p_topology.Graph.node_count topo.Transit_stub.graph in
  let hosts = Array.init n (fun i -> i) in
  let roles = assign_roles ~rng ~ps ~heterogeneity hosts in
  (* join in random order, a t-peer first so the ring can bootstrap *)
  let order = Array.init n (fun i -> i) in
  Rng.shuffle rng order;
  (match Array.find_index (fun i -> roles.(i) = Peer.T_peer) order with
   | Some k ->
     let tmp = order.(0) in
     order.(0) <- order.(k);
     order.(k) <- tmp
   | None -> ());
  let peers =
    Array.map
      (fun i ->
        let host = hosts.(i) in
        let peer =
          H.join h ~host ~role:roles.(i) ~link_capacity:(capacity_of_host host) ()
        in
        H.run h;
        peer)
      order
  in
  let items = Keys.generate ~rng ~count:scale.n_items ~categories:8 in
  { h; peers; items; rng }

(* --- the run context --- *)

(* What one bench run's experiments share: main's --metrics-dir, --slo
   and --audit flags, and the tallies the dumps and the SLO gate keep
   as the run goes. *)
type ctx = {
  (* every measured system dumps its metrics registry as JSON into this
     directory, one file per dump, readable with `p2psim report` *)
  metrics_dir : string option;
  mutable dump_counter : int;
  (* every bench that measures lookup latency checks each spec
     ("lookup:p99<=40") against each measured system's registry through
     [slo_pass], turning the bench into a latency regression gate *)
  slo_specs : string list;
  (* systems checked against the specs so far, and the labels of those
     that failed one *)
  mutable slo_checked : int;
  mutable slo_failures : string list;
  (* every measured system also runs the full invariant-check catalogue
     after its lookup phase; violations are printed and Error-severity
     ones abort the bench run, so a structural bug cannot silently shape
     the numbers being reported *)
  audit_enabled : bool;
}

let context ~metrics_dir ~slo_specs ~audit_enabled =
  {
    metrics_dir;
    dump_counter = 0;
    slo_specs;
    slo_checked = 0;
    slo_failures = [];
    audit_enabled;
  }

(* --- registry dumps (--metrics-dir) --- *)

(* Dump [b]'s registry to "<metrics-dir>/<name>.json"; [name] defaults to
   a running "dump-NNN" counter so sweep iterations stay distinct.  No-op
   without a metrics directory. *)
let dump_metrics ctx ?name b =
  match ctx.metrics_dir with
  | None -> ()
  | Some dir ->
    let name =
      match name with
      | Some n -> n
      | None ->
        ctx.dump_counter <- ctx.dump_counter + 1;
        Printf.sprintf "dump-%03d" ctx.dump_counter
    in
    let path = Filename.concat dir (name ^ ".json") in
    P2p_obs.Export.write_metrics ~path (Metrics.registry (H.metrics b.h));
    Printf.printf "  [metrics -> %s]\n%!" path

(* --- latency SLO gates (--slo) --- *)

(* Check every --slo spec against [reg], one printed line per spec;
   [label] names the system there and in [slo_verdict].  Returns [false]
   on a violation.  Without specs, checks nothing and returns [true]. *)
let slo_pass ctx ?label reg =
  match ctx.slo_specs with
  | [] -> true
  | specs ->
    ctx.slo_checked <- ctx.slo_checked + 1;
    let label =
      match label with Some l -> l | None -> Printf.sprintf "system %d" ctx.slo_checked
    in
    let ok =
      P2p_obs.Slo.enforce reg ~specs ~print:(fun line ->
          Printf.printf "  [slo %s] %s\n%!" label line)
    in
    if not ok then ctx.slo_failures <- label :: ctx.slo_failures;
    ok

(* Exit 1 when a spec failed, and also when specs were given but
   [command] checked none of them: a gate that measured nothing must not
   pass. *)
let slo_verdict ctx ~command =
  if ctx.slo_specs <> [] then
    match List.rev ctx.slo_failures with
    | [] when ctx.slo_checked = 0 ->
      Printf.eprintf "bench: %s checked no --slo spec (it measures no lookup latency)\n"
        command;
      exit 1
    | [] -> ()
    | fs ->
      List.iter (Printf.eprintf "bench: SLO VIOLATION at %s\n") fs;
      exit 1

(* --- invariant sanity pass (--audit) --- *)

let audit_pass ctx b =
  if ctx.audit_enabled then begin
    let snap = P2p_audit.Checks.run_all (H.world b.h) in
    match P2p_audit.Checks.violations snap with
    | [] -> ()
    | vs ->
      Printf.printf "  [audit: %d violations]\n%!" (List.length vs);
      List.iter
        (fun v ->
          Printf.printf "    %s\n%!" (Format.asprintf "%a" P2p_audit.Checks.pp_violation v))
        vs;
      if P2p_audit.Checks.errors vs <> [] then begin
        Printf.eprintf "bench: aborting on audit errors\n";
        exit 1
      end
  end

(* Insert the whole corpus from random peers and settle. *)
let insert_corpus b =
  Array.iter
    (fun item ->
      let from = Rng.pick b.rng b.peers in
      if from.Peer.alive then
        H.insert b.h ~from ~key:item.Keys.key ~value:item.Keys.value ())
    b.items;
  H.run b.h

(* Issue [count] uniform lookups of previously inserted items from random
   live peers; returns (succeeded, failed). *)
let run_lookups ctx ?ttl b ~count =
  let live = Array.of_list (H.peers b.h) in
  let targets = Keys.lookup_sequence ~rng:b.rng ~items:b.items ~count in
  Array.iter
    (fun item ->
      let from = Rng.pick b.rng live in
      H.lookup b.h ~from ~key:item.Keys.key ?ttl ~on_result:(fun _ -> ()) ())
    targets;
  H.run b.h;
  audit_pass ctx b;
  ignore (slo_pass ctx (Metrics.registry (H.metrics b.h)) : bool);
  dump_metrics ctx b

(* --- output helpers --- *)

let header title =
  Printf.printf "\n==== %s ====\n%!" title

let row fmt = Printf.printf fmt

let ps_sweep = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]
