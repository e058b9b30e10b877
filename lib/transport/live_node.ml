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
   message must never exceed [2n] hops.  Violations count under
   [ring/violations], in the one registry the node shares with its
   transport's [wire/*] counters.  Every 500 ms (and at start and stop)
   the node appends a span-free scrape snapshot to [health-<node>.jsonl],
   one per line, which the orchestrator decodes after shutdown. *)

module Registry = P2p_obs.Registry
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
  (* [ring/*] counters in [reg], beside the transport's [wire/*] *)
  served : Registry.counter;
  hops_served : Registry.counter;
  violations : Registry.counter;
  dump : out_channel option;
  dump_dir : string option;
  mutable stopping : bool;
  (* tracker state (node 0 only) *)
  announced : (int, int * int) Hashtbl.t;  (* node -> (p_id, port) *)
  (* observability *)
  trace : Trace.t;
  reg : Registry.t;  (* the transport's registry *)
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

(* --- self-audit ------------------------------------------------------ *)

let audit t =
  if t.ready then begin
    if List.length t.peers <> t.n then begin
      Registry.incr t.violations;
      Flight_recorder.record_audit t.recorder ~at:(now_ms t) ~check:"peer_count"
        ~severity:"error"
        ~detail:(Printf.sprintf "%d peers, want %d" (List.length t.peers) t.n)
    end;
    Hashtbl.iter
      (fun key _ ->
        if not (owns t (Key_hash.of_string key)) then begin
          Registry.incr t.violations;
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
  if hops > max_hops t then Registry.incr t.violations
  else if owns t (Key_hash.of_string key) then begin
    Hashtbl.replace t.store key value;
    Registry.incr t.served;
    Registry.incr ~by:hops t.hops_served;
    if origin = t.node then
      reply_client t ~req:op ~found:true ~value:"" ~holder:t.node ~hops
    else
      send_ctx t ~op ~pspan ~dst:origin (Wire.Insert_ack { op; holder = t.node; hops })
  end
  else if t.succ = t.node then Registry.incr t.violations
  else
    send_ctx t ~op ~pspan ~dst:t.succ
      (Wire.Insert { op; origin; route_id; key; value; hops = hops + 1 })

let route_lookup t ~op ~origin ~route_id ~key ~ttl ~hops ~pspan =
  if hops > max_hops t then Registry.incr t.violations
  else if owns t (Key_hash.of_string key) then begin
    Registry.incr t.served;
    Registry.incr ~by:hops t.hops_served;
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
  else if t.succ = t.node then Registry.incr t.violations
  else
    send_ctx t ~op ~pspan ~dst:t.succ
      (Wire.Lookup { op; origin; route_id; key; ttl; hops = hops + 1 })

(* --- scrape endpoint ------------------------------------------------- *)

(* The gauges a snapshot reads off live state rather than counting. *)
let set_gauges t =
  let set subsystem name v =
    Registry.set (Registry.gauge t.reg ~subsystem ~name) (float_of_int v)
  in
  set "ring" "store" (Hashtbl.length t.store);
  set "ring" "pending" (Hashtbl.length t.pending);
  set "timer" "cancel_late" (Live_transport.cancel_late t.tr)

let snapshot t ~spans =
  set_gauges t;
  {
    Scrape.node = t.node;
    at = now_ms t;
    uptime_ms = (Unix.gettimeofday () -. t.started) *. 1000.0;
    ready = t.ready;
    p_id = t.p_id;
    succ = t.succ;
    pred = t.pred;
    store = Hashtbl.length t.store;
    violations = Registry.counter_value t.violations;
    metrics = Registry.doc t.reg;
    trace = (if spans then Export.chrome_events t.trace else []);
  }

(* --- health dump ----------------------------------------------------- *)

(* A health line is a span-free scrape snapshot: the dump and the scrape
   endpoint publish one record. *)
let dump_health t =
  match t.dump with
  | None -> ()
  | Some oc ->
    output_string oc (Scrape.to_string (snapshot t ~spans:false));
    output_char oc '\n';
    flush oc

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
           violations = Registry.counter_value t.violations;
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
  (* replies addressed to the client or the aggregator, and the
     transport's own handshake and liveness frames *)
  | Wire.Hello _ | Wire.Pong _ | Wire.Client_reply _ | Wire.Status _ | Wire.Scrape_reply _
    ->
    ()

(* --- lifecycle ------------------------------------------------------- *)

(* [client] is the orchestrator's node index (= [n]); it gets an address
   so replies can dial back to it. *)
(* Spans and events a node's trace rings hold. *)
let trace_capacity = 8192

let create ?dump_dir ?epoch ?(sample_rate = 1.0) ?(sample_seed = 0) ~node ~n
    ~port_base () =
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
  let reg = Live_transport.registry tr in
  let ring name = Registry.counter reg ~subsystem:"ring" ~name in
  let served = ring "served" in
  let hops_served = ring "hops_served" in
  let violations = ring "violations" in
  let recorder = Flight_recorder.create ~capacity:1024 () in
  (* exact latency accounting: 100% of completions feed the per-kind log
     histograms (mergeable cluster-wide) and the flight recorder *)
  P2p_obs.Spans.record_totals reg trace;
  Trace.on_op_complete trace (Flight_recorder.observe recorder);
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
      served;
      hops_served;
      violations;
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
  dump_health t;
  ignore
    (Live_transport.periodic tr ~period:500. (fun () ->
         audit t;
         dump_health t));
  t

let ready t = t.ready

let step ?timeout t = Live_transport.step ?timeout t.tr

let transport t = t.tr

let violations t = Registry.counter_value t.violations

let trace t = t.trace

let registry t = t.reg

let scrape_snapshot t ~spans = snapshot t ~spans

let request_flight_dump t ~reason =
  if t.flight_reason = None then t.flight_reason <- Some reason

(* Write the flight-recorder ring (plus chrome trace and metrics) into
   [dump_dir] now, from loop context; the paths written. *)
let flight_dump t ~reason =
  match t.dump_dir with
  | None -> []
  | Some dir ->
    set_gauges t;
    Flight_recorder.dump t.recorder ~trace:t.trace ~registry:t.reg ~dir
      ~reason:(Printf.sprintf "%s-node-%d" reason t.node) ()

let stop t =
  audit t;
  dump_health t;
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
