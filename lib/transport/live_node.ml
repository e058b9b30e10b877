(* One live ring node: the protocol logic a [p2psim serve] worker
   process runs over {!Live_transport}.

   Bootstrap is tracker-style (the paper's BitTorrent-like s-network,
   §5): every node announces itself to node 0; once the tracker has
   heard from all [n] members it broadcasts the full peer list, and each
   node derives its ring position — successor and predecessor by p_id
   order — locally.  Connection refusals during the race where workers
   come up in arbitrary order are absorbed by the transport's
   retry/backoff, so announces need no application-level retry.

   Data operations route Chord-style around the successor ring: a node
   owning the key's [d_id] (half-open arc (pred, self]) serves it,
   anyone else forwards to its successor with the hop counter bumped.
   Client requests enter at any node; that entry node remembers the
   requesting client per request id and relays the ring's answer back as
   a [Client_reply].

   Observability spans processes.  Each node runs its own {!Trace} (one
   disjoint span-id range per process) and {!Registry}; the entry node
   opens the operation — the wire request id is the operation id — and
   every frame of a sampled operation carries a wire-v2 trace header, so
   each hop rebinds its span under the sender's.  All nodes share the
   sampling seed and rate, so the pure-hash decision agrees everywhere.
   Completion latency is exact (an [on_op_complete] listener feeds
   [latency/<kind>_total_ms] log histograms, 100% of ops regardless of
   sampling) and a {!Flight_recorder} keeps the recent-completions ring.

   A [Scrape_request] frame is answered on the same socket with a
   versioned {!P2p_obs.Scrape} snapshot: liveness, ring position, the
   full registry, and (on request) retained chrome span events — the
   aggregator's raw material for cluster-wide percentiles and the
   merged Perfetto trace.

   Every node audits itself: each stored key must hash into the node's
   own arc, the peer list must have exactly [n] members, and a routed
   message must never exceed [2n] hops.  Violations are counted and
   published in the periodic JSONL health dump ([health-<node>.jsonl]),
   one self-describing object per line, which the orchestrator collects
   after shutdown. *)

module Json = P2p_obs.Json
module Registry = P2p_obs.Registry
module Log_hist = P2p_obs.Log_hist
module Scrape = P2p_obs.Scrape
module Export = P2p_obs.Export
module Flight_recorder = P2p_obs.Flight_recorder
module Trace = P2p_sim.Trace
module Id_space = P2p_hashspace.Id_space
module Key_hash = P2p_hashspace.Key_hash

type t = {
  node : int;
  n : int;
  p_id : int;
  tr : Live_transport.t;
  store : (string, string) Hashtbl.t;
  mutable peers : (int * int) list;  (* (node, p_id), sorted by p_id *)
  mutable succ : int;
  mutable pred : int;
  mutable pred_id : int;
  mutable ready : bool;
  pending : (int, int) Hashtbl.t;  (* request id -> client node *)
  mutable violations : int;
  mutable hops_served : int;
  mutable served : int;
  dump : out_channel option;
  dump_dir : string option;
  mutable stopping : bool;
  (* tracker state (node 0 only) *)
  announced : (int, int * int) Hashtbl.t;  (* node -> (p_id, port) *)
  (* observability *)
  trace : Trace.t;
  reg : Registry.t;
  recorder : Flight_recorder.t;
  epoch : float;  (* wall-clock seconds shared by the whole cluster *)
  started : float;
  (* set by a signal handler (async-signal-safe: one field write); acted
     on from the select loop in {!run} *)
  mutable flight_reason : string option;
}

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* Disjoint per-process span-id ranges: a span id carried over the wire
   as a remote parent can never alias a locally minted span. *)
let span_id_stride = 1 lsl 40

let owns t d_id =
  t.n = 1 || Id_space.between_incl_right d_id ~left:t.pred_id ~right:t.p_id

let max_hops t = 2 * t.n

let now_ms t = (Unix.gettimeofday () -. t.epoch) *. 1000.0

(* --- health dump ----------------------------------------------------- *)

let dump_health t ~event =
  match t.dump with
  | None -> ()
  | Some oc ->
    let s = Live_transport.stats t.tr in
    let line =
      Json.Obj
        [
          ("ts", Json.Float (Unix.gettimeofday ()));
          ("event", Json.String event);
          ("node", Json.Int t.node);
          ("p_id", Json.Int t.p_id);
          ("ready", Json.Bool t.ready);
          ("store", Json.Int (Hashtbl.length t.store));
          ("served", Json.Int t.served);
          ("hops_served", Json.Int t.hops_served);
          ("violations", Json.Int t.violations);
          ("msgs_sent", Json.Int s.msgs_sent);
          ("msgs_received", Json.Int s.msgs_received);
          ("bytes_sent", Json.Int s.bytes_sent);
          ("bytes_received", Json.Int s.bytes_received);
          ("retries", Json.Int s.retries);
          ("window_stalls", Json.Int s.window_stalls);
          ("drops", Json.Int s.drops);
          ("decode_errors", Json.Int s.decode_errors);
          ("trace_bytes", Json.Int s.trace_bytes);
          ("timer_cancel_late", Json.Int (P2p_sim.Timer.cancel_late ()));
        ]
    in
    output_string oc (Json.to_string line);
    output_char oc '\n';
    flush oc

(* --- self-audit ------------------------------------------------------ *)

let audit t =
  if t.ready then begin
    if List.length t.peers <> t.n then begin
      t.violations <- t.violations + 1;
      Flight_recorder.record_audit t.recorder ~at:(now_ms t) ~check:"peer_count"
        ~severity:"error"
        ~detail:(Printf.sprintf "%d peers, want %d" (List.length t.peers) t.n)
    end;
    Hashtbl.iter
      (fun key _ ->
        if not (owns t (Key_hash.of_string key)) then begin
          t.violations <- t.violations + 1;
          Flight_recorder.record_audit t.recorder ~at:(now_ms t)
            ~check:"key_placement" ~severity:"error"
            ~detail:(Printf.sprintf "key %S outside own arc" key)
        end)
      t.store
  end

(* --- ring bootstrap -------------------------------------------------- *)

let send t ~dst msg = Live_transport.send t.tr ~src:t.node ~dst msg

(* Send one frame of operation [op] with trace context attached when the
   causal chain is live: [pspan >= 0] is the sender-side span (or op
   root) the receiver should hang its span under.  Unsampled operations
   ([pspan = -1]) travel unstamped — 1 byte of flags, no header. *)
let send_ctx t ~op ~pspan ~dst msg =
  let trace =
    if pspan >= 0 then
      Some Wire.{ tc_op = op; tc_parent = pspan; tc_sampled = true }
    else None
  in
  Live_transport.send_traced t.tr ?trace ~dst msg

let apply_peers t peers =
  let sorted =
    List.sort (fun (_, a) (_, b) -> compare a b)
      (List.map (fun (node, p_id, _port) -> (node, p_id)) peers)
  in
  t.peers <- sorted;
  let len = List.length sorted in
  let idx = ref 0 in
  List.iteri (fun i (node, _) -> if node = t.node then idx := i) sorted;
  let succ_node, _ = List.nth sorted ((!idx + 1) mod len) in
  let pred_node, pred_id = List.nth sorted ((!idx + len - 1) mod len) in
  t.succ <- succ_node;
  t.pred <- pred_node;
  t.pred_id <- pred_id;
  t.ready <- true

let tracker_maybe_broadcast t =
  if t.node = 0 && Hashtbl.length t.announced = t.n then begin
    let peers =
      List.sort compare
        (Hashtbl.fold
           (fun node (p_id, port) acc -> (node, p_id, port) :: acc)
           t.announced [])
    in
    List.iter
      (fun (node, _, _) ->
        if node = t.node then apply_peers t peers
        else send t ~dst:node (Wire.Tracker_peers { peers }))
      peers
  end

(* --- data path ------------------------------------------------------- *)

let reply_client t ~req ~found ~value ~holder ~hops =
  match Hashtbl.find_opt t.pending req with
  | None -> ()
  | Some client ->
    Hashtbl.remove t.pending req;
    (* the operation completes when its entry node answers the client:
       this fires the completion listener (exact latency histograms +
       flight recorder) and closes the root span *)
    Trace.end_op t.trace ~time:(now_ms t) ~op:req "%s"
      (if found then "found" else "not-found");
    send t ~dst:client (Wire.Client_reply { req; found; value; holder; hops })

let route_insert t ~op ~origin ~route_id ~key ~value ~hops ~pspan =
  if hops > max_hops t then t.violations <- t.violations + 1
  else if owns t (Key_hash.of_string key) then begin
    Hashtbl.replace t.store key value;
    t.served <- t.served + 1;
    t.hops_served <- t.hops_served + hops;
    if origin = t.node then
      reply_client t ~req:op ~found:true ~value:"" ~holder:t.node ~hops
    else
      send_ctx t ~op ~pspan ~dst:origin (Wire.Insert_ack { op; holder = t.node; hops })
  end
  else if t.succ = t.node then t.violations <- t.violations + 1
  else
    send_ctx t ~op ~pspan ~dst:t.succ
      (Wire.Insert { op; origin; route_id; key; value; hops = hops + 1 })

let route_lookup t ~op ~origin ~route_id ~key ~ttl ~hops ~pspan =
  if hops > max_hops t then t.violations <- t.violations + 1
  else if owns t (Key_hash.of_string key) then begin
    t.served <- t.served + 1;
    t.hops_served <- t.hops_served + hops;
    let answer =
      match Hashtbl.find_opt t.store key with
      | Some value -> Wire.Found { op; key; value; holder = t.node; hops }
      | None -> Wire.Not_found { op; key; hops }
    in
    if origin = t.node then
      match answer with
      | Wire.Found { value; holder; hops; _ } ->
        reply_client t ~req:op ~found:true ~value ~holder ~hops
      | _ -> reply_client t ~req:op ~found:false ~value:"" ~holder:(-1) ~hops
    else send_ctx t ~op ~pspan ~dst:origin answer
  end
  else if t.succ = t.node then t.violations <- t.violations + 1
  else
    send_ctx t ~op ~pspan ~dst:t.succ
      (Wire.Lookup { op; origin; route_id; key; ttl; hops = hops + 1 })

(* --- scrape endpoint ------------------------------------------------- *)

(* Mirror the transport's monotonic stats into registry counters (by
   delta, so repeated scrapes stay correct) right before exporting. *)
let sync_stats t =
  let s = Live_transport.stats t.tr in
  let c name v =
    let c = Registry.counter t.reg ~subsystem:"wire" ~name in
    Registry.incr ~by:(v - Registry.counter_value c) c
  in
  c "msgs_sent" s.msgs_sent;
  c "msgs_received" s.msgs_received;
  c "bytes_sent" s.bytes_sent;
  c "bytes_received" s.bytes_received;
  c "connects" s.connects;
  c "retries" s.retries;
  c "window_stalls" s.window_stalls;
  c "drops" s.drops;
  c "decode_errors" s.decode_errors;
  c "trace_bytes" s.trace_bytes;
  let r name v =
    let c = Registry.counter t.reg ~subsystem:"ring" ~name in
    Registry.incr ~by:(v - Registry.counter_value c) c
  in
  r "served" t.served;
  r "hops_served" t.hops_served;
  r "violations" t.violations;
  Registry.set (Registry.gauge t.reg ~subsystem:"ring" ~name:"store")
    (float_of_int (Hashtbl.length t.store));
  Registry.set (Registry.gauge t.reg ~subsystem:"ring" ~name:"pending")
    (float_of_int (Hashtbl.length t.pending))

let snapshot t ~spans =
  sync_stats t;
  {
    Scrape.node = t.node;
    at = now_ms t;
    uptime_ms = (Unix.gettimeofday () -. t.started) *. 1000.0;
    ready = t.ready;
    p_id = t.p_id;
    succ = t.succ;
    pred = t.pred;
    store = Hashtbl.length t.store;
    violations = t.violations;
    metrics = Registry.to_json t.reg;
    trace = (if spans then Export.chrome_events t.trace else []);
  }

(* --- dispatch -------------------------------------------------------- *)

let handle t ~src ~trace msg =
  (* A hop span for a data frame that arrived with trace context: bound
     under the sender's span (a remote id — disjoint ranges make it
     unambiguous), placed on this node's process track via [dst]. *)
  let hop ~op ~phase label =
    match trace with
    | None -> -1
    | Some c ->
      Trace.begin_span t.trace ~time:(now_ms t) ~op ~tier:"t_network" ~phase
        ~parent:c.Wire.tc_parent ~src ~dst:t.node label
  in
  let close span = if span >= 0 then Trace.end_span t.trace ~time:(now_ms t) span in
  let pspan_for span =
    if span >= 0 then span
    else match trace with Some c -> c.Wire.tc_parent | None -> -1
  in
  match msg with
  | Wire.Tracker_announce { host; p_id; port } ->
    if t.node = 0 then begin
      Hashtbl.replace t.announced host (p_id, port);
      tracker_maybe_broadcast t
    end
  | Wire.Tracker_peers { peers } -> apply_peers t peers
  | Wire.Insert { op; origin; route_id; key; value; hops } ->
    let span = hop ~op ~phase:"ring_hop" key in
    route_insert t ~op ~origin ~route_id ~key ~value ~hops
      ~pspan:(pspan_for span);
    close span
  | Wire.Insert_ack { op; holder; hops } ->
    (match trace with
     | Some c ->
       Trace.mark_span t.trace ~time:(now_ms t) ~op ~tier:"t_network"
         ~phase:"ack" ~parent:c.Wire.tc_parent ~src ~dst:t.node "insert-ack"
     | None -> ());
    reply_client t ~req:op ~found:true ~value:"" ~holder ~hops
  | Wire.Lookup { op; origin; route_id; key; ttl; hops } ->
    let span = hop ~op ~phase:"ring_hop" key in
    route_lookup t ~op ~origin ~route_id ~key ~ttl ~hops
      ~pspan:(pspan_for span);
    close span
  | Wire.Found { op; value; holder; hops; key = _ } ->
    (match trace with
     | Some c ->
       Trace.mark_span t.trace ~time:(now_ms t) ~op ~tier:"t_network"
         ~phase:"reply" ~parent:c.Wire.tc_parent ~src ~dst:t.node "found"
     | None -> ());
    reply_client t ~req:op ~found:true ~value ~holder ~hops
  | Wire.Not_found { op; hops; key = _ } ->
    (match trace with
     | Some c ->
       Trace.mark_span t.trace ~time:(now_ms t) ~op ~tier:"t_network"
         ~phase:"reply" ~parent:c.Wire.tc_parent ~src ~dst:t.node "not-found"
     | None -> ());
    reply_client t ~req:op ~found:false ~value:"" ~holder:(-1) ~hops
  | Wire.Client_insert { req; key; value } ->
    Hashtbl.replace t.pending req src;
    (* the wire request id is the operation id, minted by the client and
       globally unique — so every process attributes work to the same op *)
    Trace.begin_extern_op t.trace ~time:(now_ms t) ~op:req ~kind:Trace.Insert
      ~src ~dst:t.node key;
    let root =
      match Trace.op_root_span t.trace req with Some r -> r | None -> -1
    in
    route_insert t ~op:req ~origin:t.node ~route_id:req ~key ~value ~hops:0
      ~pspan:root
  | Wire.Client_lookup { req; key } ->
    Hashtbl.replace t.pending req src;
    Trace.begin_extern_op t.trace ~time:(now_ms t) ~op:req ~kind:Trace.Lookup
      ~src ~dst:t.node key;
    let root =
      match Trace.op_root_span t.trace req with Some r -> r | None -> -1
    in
    route_lookup t ~op:req ~origin:t.node ~route_id:req ~key
      ~ttl:(max_hops t) ~hops:0 ~pspan:root
  | Wire.Status_request { req } ->
    send t ~dst:src
      (Wire.Status
         {
           req;
           node = t.node;
           ready = t.ready;
           store = Hashtbl.length t.store;
           violations = t.violations;
         })
  | Wire.Scrape_request { req; port; spans } ->
    (* an aggregator outside the ring's address book tells us where it
       listens; ring members and the orchestrator re-register their
       existing address, which is harmless *)
    if port > 0 then Live_transport.set_peer_addr t.tr src (loopback port);
    let snap = snapshot t ~spans in
    send t ~dst:src
      (Wire.Scrape_reply { req; node = t.node; snapshot = Scrape.to_string snap })
  | Wire.Shutdown -> t.stopping <- true
  | Wire.Ping { nonce } -> send t ~dst:src (Wire.Pong { nonce })
  | _ -> ()

(* --- lifecycle ------------------------------------------------------- *)

(* [client] is the orchestrator's node index (= [n]); it gets an address
   so replies can dial back to it. *)
let create ?dump_dir ?epoch ?(trace_capacity = 8192) ?(sample_rate = 1.0)
    ?(sample_seed = 0) ~node ~n ~port_base () =
  let port = port_base + node in
  let p_id = Key_hash.of_address ~ip:"127.0.0.1" ~port in
  let tr = Live_transport.create ~p_id ~self:node () in
  for peer = 0 to n do
    Live_transport.set_peer_addr tr peer (loopback (port_base + peer))
  done;
  Live_transport.listen tr (loopback port);
  let dump =
    Option.map
      (fun dir ->
        open_out (Filename.concat dir (Printf.sprintf "health-%d.jsonl" node)))
      dump_dir
  in
  let started = Unix.gettimeofday () in
  let trace =
    Trace.create ~capacity:trace_capacity ~sample_rate ~sample_seed
      ~first_span_id:(node * span_id_stride) ()
  in
  let reg = Registry.create () in
  let recorder = Flight_recorder.create ~capacity:1024 () in
  (* exact latency accounting: 100% of completions feed the per-kind log
     histograms (mergeable cluster-wide) and the flight recorder *)
  Trace.on_op_complete trace (fun c ->
      let h =
        Registry.log_histogram reg ~subsystem:"latency"
          ~name:(c.Trace.comp_kind ^ "_total_ms")
      in
      Log_hist.observe h (c.Trace.comp_stop -. c.Trace.comp_start);
      Flight_recorder.observe recorder c);
  let t =
    {
      node;
      n;
      p_id;
      tr;
      store = Hashtbl.create 256;
      peers = [];
      succ = node;
      pred = node;
      pred_id = p_id;
      ready = false;
      pending = Hashtbl.create 64;
      violations = 0;
      hops_served = 0;
      served = 0;
      dump;
      dump_dir;
      stopping = false;
      announced = Hashtbl.create 16;
      trace;
      reg;
      recorder;
      epoch = Option.value epoch ~default:started;
      started;
      flight_reason = None;
    }
  in
  Live_transport.set_handler_traced tr (fun ~src ~dst:_ ~trace msg ->
      handle t ~src ~trace msg);
  (* Announce to the tracker; node 0 announces to itself locally. *)
  if node = 0 then begin
    Hashtbl.replace t.announced 0 (p_id, port);
    tracker_maybe_broadcast t
  end
  else send t ~dst:0 (Wire.Tracker_announce { host = node; p_id; port });
  dump_health t ~event:"start";
  ignore
    (Live_transport.periodic tr ~period:500. (fun () ->
         audit t;
         dump_health t ~event:"tick"));
  t

let ready t = t.ready

let step ?timeout t = Live_transport.step ?timeout t.tr

let transport t = t.tr

let violations t = t.violations

let trace t = t.trace

let registry t = t.reg

let scrape_snapshot t ~spans = snapshot t ~spans

let request_flight_dump t ~reason =
  if t.flight_reason = None then t.flight_reason <- Some reason

let flight_dump t ~reason =
  match t.dump_dir with
  | None -> []
  | Some dir ->
    sync_stats t;
    Flight_recorder.dump t.recorder ~trace:t.trace ~registry:t.reg ~dir
      ~reason:(Printf.sprintf "%s-node-%d" reason t.node) ()

let stop t =
  audit t;
  dump_health t ~event:"final";
  (match t.dump with Some oc -> close_out oc | None -> ());
  Live_transport.stop t.tr

(* Run until a [Shutdown] frame arrives, then flush a final health line
   and close every socket.  A few extra steps before closing let the
   last replies (and other nodes' shutdowns) drain.

   A signal handler may have asked for a flight dump
   ({!request_flight_dump}); it is honoured here, between select turns —
   never inside the handler, where the heap is off-limits — and then
   shuts the node down cleanly. *)
let run t =
  while not t.stopping do
    ignore (step ~timeout:0.05 t);
    match t.flight_reason with
    | Some reason ->
      ignore (flight_dump t ~reason);
      t.stopping <- true
    | None -> ()
  done;
  for _ = 1 to 5 do
    ignore (step ~timeout:0.01 t)
  done;
  stop t
