open P2p_hashspace

type role = T_peer | S_peer

type t = {
  host : int;
  mutable p_id : Id_space.id;
  mutable role : role;
  mutable alive : bool;
  link_capacity : float;
  interest : int option;
  mutable succ : t option;
  mutable pred : t option;
  mutable fingers : t option array;
  mutable joining : bool;
  mutable leaving : bool;
  mutable join_queue : (unit -> unit) list;
  mutable t_home : t option;
  mutable cp : t option;
  mutable children : t list;
  store : Data_store.t;
  replicas : Data_store.t;
  mutable cache : Cache.t option;
  mutable summaries : (int, Bloom.t array) Hashtbl.t option;
  mutable summaries_epoch : int;
  mutable tracker_index : (string, t) Hashtbl.t option;
  mutable bypass : (t * float) list;
  mutable watchdogs : (int, P2p_sim.Timer.t) Hashtbl.t option;
  mutable hello_timer : P2p_sim.Timer.t option;
  mutable last_ack_sent : float;
  log : log;
  mutable logged : int;
}

and log = { peers : t Change_log.t; keys : int Change_log.t }

let make ~log ~interner ~host ~p_id ~role ~link_capacity
    ?interest () =
  (* a negative host never registers: its stores journal nowhere *)
  let keys = if host >= 0 then log.keys else Data_store.no_world in
  {
    host;
    p_id;
    role;
    alive = true;
    link_capacity;
    interest;
    succ = None;
    pred = None;
    fingers = [||];
    joining = false;
    leaving = false;
    join_queue = [];
    t_home = None;
    cp = None;
    children = [];
    store = Data_store.create ~interner ~log:keys ~tag:(2 * host) ();
    replicas = Data_store.create ~interner ~log:keys ~tag:((2 * host) + 1) ();
    (* The feature tables start absent, since even an empty Hashtbl
       holds 16 buckets.  Each exists only where a run uses it: the
       cache at a requester once a lookup succeeds with caching on, the
       summaries at a tree parent once edge summaries are built, the
       tracker index at a t-peer once BitTorrent mode reports to it, the
       watchdogs once a HELLO heartbeat arms one. *)
    cache = None;
    summaries = None;
    summaries_epoch = -1;
    tracker_index = None;
    bypass = [];
    watchdogs = None;
    hello_timer = None;
    last_ack_sent = neg_infinity;
    log;
    logged = 0;
  }

(* A store's holder tag, as [make] assigns it: [2 · host], plus 1 for
   the replica store. *)
let tag_host tag = tag lsr 1

let is_replica_tag tag = tag land 1 = 1

let tagged_store p tag = if is_replica_tag tag then p.replicas else p.store

(* One stamp compare per write: [logged] is the recording [p] was last
   journaled in, and an off journal's generation (0) is every fresh
   peer's stamp. *)
let log_change p =
  let gen = Change_log.generation p.log.peers in
  if p.logged <> gen then begin
    p.logged <- gen;
    Change_log.add p.log.peers p
  end

let set_p_id p v =
  log_change p;
  p.p_id <- v

let set_role p v =
  log_change p;
  p.role <- v

let set_alive p v =
  log_change p;
  p.alive <- v

let set_succ p v =
  log_change p;
  p.succ <- v

let set_pred p v =
  log_change p;
  p.pred <- v

let set_joining p v =
  log_change p;
  p.joining <- v

let set_leaving p v =
  log_change p;
  p.leaving <- v

let set_join_queue p v =
  log_change p;
  p.join_queue <- v

let set_t_home p v =
  log_change p;
  p.t_home <- v

let set_cp p v =
  log_change p;
  p.cp <- v

(* A child dropped from the list is logged too: its [cp] may still name
   [p], and only the log can tell the audit which peer lost its parent's
   side of the edge. *)
let set_children p v =
  log_change p;
  if Change_log.generation p.log.peers <> 0 then
    List.iter (fun c -> if not (List.memq c v) then log_change c) p.children;
  p.children <- v

let set_fingers p v =
  log_change p;
  p.fingers <- v

let set_finger p k v =
  log_change p;
  p.fingers.(k) <- v

let refill_finger p k v = p.fingers.(k) <- v

let set_summaries_epoch p v = p.summaries_epoch <- v
let set_bypass p v = p.bypass <- v
let set_hello_timer p v = p.hello_timer <- v
let set_last_ack_sent p v = p.last_ack_sent <- v

(* Feature tables: each is allocated by its first write, and a crash or
   hand-over drops it rather than emptying it.  An absent table reads as
   empty. *)

let find_in tbl k = match tbl with Some tbl -> Hashtbl.find_opt tbl k | None -> None
let remove_in tbl k = match tbl with Some tbl -> Hashtbl.remove tbl k | None -> ()

let singleton k v =
  let tbl = Hashtbl.create 1 in
  Hashtbl.replace tbl k v;
  tbl

let summary p host = find_in p.summaries host

let set_summary p host filters =
  match p.summaries with
  | Some tbl -> Hashtbl.replace tbl host filters
  | None -> p.summaries <- Some (singleton host filters)

let drop_summaries p = p.summaries <- None

let tracked p key = find_in p.tracker_index key

let set_tracked p key holder =
  match p.tracker_index with
  | Some tbl -> Hashtbl.replace tbl key holder
  | None -> p.tracker_index <- Some (singleton key holder)

let remove_tracked p key = remove_in p.tracker_index key
let drop_tracker_index p = p.tracker_index <- None

let watchdog p host = find_in p.watchdogs host

let set_watchdog p host timer =
  match p.watchdogs with
  | Some tbl -> Hashtbl.replace tbl host timer
  | None -> p.watchdogs <- Some (singleton host timer)

let remove_watchdog p host = remove_in p.watchdogs host
let drop_watchdogs p = p.watchdogs <- None

let cached p ~now ~key =
  match p.cache with Some c -> Cache.find c ~now ~key | None -> None

let cache_put p ~capacity ~now ~lifetime ~key ~value =
  if capacity > 0 then begin
    let c =
      match p.cache with
      | Some c -> c
      | None ->
        let c = Cache.create ~capacity in
        p.cache <- Some c;
        c
    in
    Cache.put c ~now ~lifetime ~key ~value
  end

let drop_cache p = p.cache <- None

let is_t_peer p = p.role = T_peer
let is_s_peer p = p.role = S_peer

let segment_left p =
  match p.pred with Some q -> q.p_id | None -> p.p_id

let covers p d_id =
  Id_space.between_incl_right d_id ~left:(segment_left p) ~right:p.p_id

let quiet p =
  p.alive && (not p.joining) && (not p.leaving) && p.join_queue = []

let tree_degree p =
  List.length p.children + (match p.cp with Some _ -> 1 | None -> 0)

(* Section 5.1's link-usage rule: a connect point takes one more child
   while its tree degree, that child included, does not exceed its link
   capacity — one tree link per unit of capacity.  Capacities are
   relative (1.0 is the default peer), so the bound is 1.0 and a peer's
   capacity alone sets how many children it can carry. *)
let link_usage_threshold = 1.0

let has_free_slot config p =
  tree_degree p < config.Config.delta
  && (not config.Config.link_usage_aware
      || float_of_int (tree_degree p + 1) /. p.link_capacity <= link_usage_threshold)

let attach_child ~parent ~child =
  set_cp child (Some parent);
  set_t_home child parent.t_home;
  set_p_id child parent.p_id;
  set_children parent (child :: parent.children)

let detach_child ~parent ~child =
  set_children parent (List.filter (fun c -> c != child) parent.children);
  set_cp child None

let tree_members root =
  let rec walk acc p = List.fold_left walk (p :: acc) p.children in
  List.rev (walk [] root)

let tree_neighbors p =
  match p.cp with Some parent -> parent :: p.children | None -> p.children

let rec live_subtree_roots children =
  List.concat_map
    (fun c -> if c.alive then [ c ] else live_subtree_roots c.children)
    children

let depth p =
  let rec up acc p = match p.cp with None -> acc | Some parent -> up (acc + 1) parent in
  up 0 p

let live_bypass p ~now =
  let live, dead = List.partition (fun (q, expiry) -> q.alive && expiry > now) p.bypass in
  if dead <> [] then set_bypass p live;
  List.map fst live

let add_bypass config p target ~now =
  if
    config.Config.bypass_enabled && p != target && p.alive && target.alive
    (* rule 1: only while total degree (tree + bypass) is under δ *)
    && tree_degree p + List.length (live_bypass p ~now) < config.Config.delta
  then begin
    let without = List.filter (fun (q, _) -> q != target) p.bypass in
    set_bypass p ((target, now +. config.Config.bypass_lifetime) :: without)
  end

let pp ppf p =
  Format.fprintf ppf "%s#%d(p_id=%#x%s)"
    (match p.role with T_peer -> "t" | S_peer -> "s")
    p.host p.p_id
    (if p.alive then "" else ",dead")
