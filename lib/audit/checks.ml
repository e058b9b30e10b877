module World = Hybrid_p2p.World
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config
module Data_store = Hybrid_p2p.Data_store
module Intern = Hybrid_p2p.Intern
module Change_log = Hybrid_p2p.Change_log
module Trace = P2p_sim.Trace
module Spans = P2p_obs.Spans
module Int_map = Map.Make (Int)
open P2p_hashspace

type severity = Warning | Error

let severity_to_string = function Warning -> "warning" | Error -> "error"

type violation = {
  check : string;
  severity : severity;
  subject : int option;
  detail : string;
}

type status = {
  name : string;
  violations : violation list;
  gauges : (string * float) list;
}

type snapshot = {
  time : float;
  statuses : status list;
}

(* Collector threaded through a check body. *)
type collector = {
  mutable acc : violation list; (* newest first *)
  mutable extra : (string * float) list;
  who : string;
}

let collector who = { acc = []; extra = []; who }

let err col ?subject fmt =
  Printf.ksprintf
    (fun detail ->
      col.acc <- { check = col.who; severity = Error; subject; detail } :: col.acc)
    fmt

let warn col ?subject fmt =
  Printf.ksprintf
    (fun detail ->
      col.acc <- { check = col.who; severity = Warning; subject; detail } :: col.acc)
    fmt

let gauge col name value = col.extra <- (name, value) :: col.extra

let finish col =
  { name = col.who; violations = List.rev col.acc; gauges = List.rev col.extra }

(* --- per-tick scratch ------------------------------------------------------

   The host- and key-indexed arrays the structural checks tally into,
   kept from tick to tick so a tick allocates none of them.  An entry
   counts only while its stamp equals the current tick's epoch: a tick
   writes only the entries it touches and never clears anything, and a
   grown array starts with stamps of 0, which no epoch equals. *)
type scratch = {
  mutable epoch : int;
  mutable host_stamp : int array;
  mutable key_stamp : int array;
  mutable key_count : int array;  (* replication_factor: replica copies per key id *)
}

let scratch () =
  { epoch = 0; host_stamp = [||]; key_stamp = [||]; key_count = [||] }

(* A fresh epoch: every stamp written before it is stale. *)
let next_epoch sc =
  sc.epoch <- sc.epoch + 1;
  sc.epoch

(* [a] grown to cover [0, n), new cells holding [fill]. *)
let cover a n fill =
  let len = Array.length a in
  if len >= n then a
  else begin
    let b = Array.make (max n (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b
  end

(* Make the host arrays cover [0, n). *)
let fit_hosts sc n = sc.host_stamp <- cover sc.host_stamp n 0

let fit_keys sc n =
  if Array.length sc.key_stamp < n then begin
    sc.key_stamp <- cover sc.key_stamp n 0;
    sc.key_count <- cover sc.key_count n 0
  end

(* --- what a tick carries to the next ------------------------------------

   An online tick re-verifies only what the world's peer journal
   ([log.peers], a {!Hybrid_p2p.Change_log}) names since the state's
   last run, on top of a {e base}: the same check's previous run with
   this state, when that run was clean and the check's own
   preconditions for a fast path held.  A fast path either proves the
   world still clean, keeping its gauges as running sums, or gives up
   ([Give_up]) and runs the full scan.  So a state with a violation is
   always reported by the full scan itself, and every status equals a
   fresh scan's, byte for byte. *)
type inc = {
  mutable runs : int;  (* catalogue runs made with this state *)
  mutable log : Peer.t Change_log.t option;  (* the journal [gen] belongs to *)
  mutable gen : int;  (* the recording restarted after the last run *)
  mutable fast : bool;  (* this run reads the journal *)
  mutable dirty : Peer.t list;  (* peers written since the last run, newest first *)
  (* each [*_base]: the run a check's fast path may build on, or -1 *)
  mutable ring_base : int;
  mutable ring_busy : int;  (* ring_busy_peers, as a running sum *)
  mutable busy_mark : Bytes.t;  (* host -> counted in [ring_busy] *)
  mutable fingers_base : int;
  mutable tree_base : int;
  mutable tree_root : int array;  (* host -> root host its last walk ran under *)
  mutable root_mark : int array;  (* host -> epoch it was picked as a root to walk *)
  mutable member_base : int;
  mutable root_of : int array;  (* host -> root host its peer is counted under *)
  mutable by_root : int array;  (* root host -> s-peers counted under it *)
  (* the last run's cost, for tests and profiles *)
  mutable work : int;  (* peer records the fast-path checks read *)
  mutable scanned : string list;  (* fast-path checks that scanned in full *)
}

let inc () =
  {
    runs = 0;
    log = None;
    gen = 0;
    fast = false;
    dirty = [];
    ring_base = -1;
    ring_busy = 0;
    busy_mark = Bytes.empty;
    fingers_base = -1;
    tree_base = -1;
    tree_root = [||];
    root_mark = [||];
    member_base = -1;
    root_of = [||];
    by_root = [||];
    work = 0;
    scanned = [];
  }

(* A fast path meets something only the full scan may report. *)
exception Give_up

(* May this run build on the one [base] names? *)
let continues inc base = inc.fast && base >= 0 && base = inc.runs - 1

let base_if inc ok = if ok then inc.runs else -1

let registered w p =
  match World.find_peer w ~host:p.Peer.host with Some q -> q == p | None -> false

(* The ring member on [host], which {!World.t_peers} holds. *)
let ring_member_at w host =
  match World.find_peer w ~host with
  | Some q when World.ring_index w q >= 0 -> Some q
  | Some _ | None -> None

let clean who gauges = { name = who; violations = []; gauges }

(* An interner that never saw a string means no registered store holds
   an item: every registered store is on the world interner. *)
let no_items w = Intern.count (World.interner w) = 0

(* --- in-flight state recognition ----------------------------------------

   A tick can land mid-protocol: between two legs of a join/leave
   triangle, or while an orphaned subtree is walking back to its root.
   [Peer.quiet] flags the former (engaged mutexes); a live s-peer whose
   cp chain ends at a live s-peer with no connect point is the latter.
   Online ticks tolerate both; the [final] pass, run at rest, reports
   them as errors. *)

(* Where does [peer]'s cp chain end?  At the first peer that is dead, a
   t-peer or without a connect point; a chain still going after 100,000
   hops is a cycle, and ends where it was cut.  No allocation: the end
   peer is returned as is and classified by {!attachment}. *)
let rec chain_end p hops =
  if (not p.Peer.alive) || Peer.is_t_peer p then p
  else
    match p.Peer.cp with
    | None -> p
    | Some parent -> if hops >= 100_000 then p else chain_end parent (hops + 1)

type attachment =
  | Rooted  (* reached a live t-peer *)
  | In_transit  (* chain ends at a live s-peer awaiting (re)attachment *)
  | Stranded  (* chain passes through a dead peer *)
  | Cp_cycle

let attachment e =
  if not e.Peer.alive then Stranded
  else if Peer.is_t_peer e then Rooted
  else match e.Peer.cp with None -> In_transit | Some _ -> Cp_cycle

(* --- ring symmetry ------------------------------------------------------ *)

(* [busy_mark] grown to cover [0, bound), new cells unmarked. *)
let fit_busy inc bound =
  let len = Bytes.length inc.busy_mark in
  if len < bound then begin
    let mark = Bytes.make (max bound (2 * len)) '\000' in
    Bytes.blit inc.busy_mark 0 mark 0 len;
    inc.busy_mark <- mark
  end

let ring_full inc ~final who w arr =
  let col = collector who in
  let n = Array.length arr in
  (* A pointer at an alive t-peer that is not yet registered belongs to a
     join triangle in flight — the joiner becomes visible atomically with
     the final leg.  Only a pointer mismatch asks, so the set of
     registered hosts is built on a tick's first question, not on every
     tick. *)
  let registered =
    lazy
      (let tbl = Hashtbl.create (2 * n) in
       Array.iter (fun p -> Hashtbl.replace tbl p.Peer.host ()) arr;
       tbl)
  in
  (* a tolerated pointer leaves no base: the fast path cannot see the
     joiner it waits for change *)
  let tolerated = ref 0 in
  let mid_join q =
    (not final) && q.Peer.alive && Peer.is_t_peer q
    && (not (Hashtbl.mem (Lazy.force registered) q.Peer.host))
    && (incr tolerated; true)
  in
  let bound = World.host_bound w in
  fit_busy inc bound;
  Bytes.fill inc.busy_mark 0 (Bytes.length inc.busy_mark) '\000';
  let busy = ref 0 in
  Array.iter
    (fun p ->
      if not (Peer.quiet p) then begin
        incr busy;
        let h = p.Peer.host in
        if h >= 0 && h < bound then Bytes.set inc.busy_mark h '\001'
      end;
      if final then
        if p.Peer.joining then
          err col ~subject:p.Peer.host "t-peer #%d: joining mutex engaged" p.Peer.host
        else if p.Peer.leaving then
          err col ~subject:p.Peer.host "t-peer #%d: leaving mutex engaged" p.Peer.host
        else if p.Peer.join_queue <> [] then
          err col ~subject:p.Peer.host "t-peer #%d: non-empty join queue" p.Peer.host)
    arr;
  gauge col "ring_busy_peers" (float_of_int !busy);
  inc.ring_busy <- !busy;
  for i = 0 to n - 1 do
    let a = arr.(i) and b = arr.((i + 1) mod n) in
    (* Online, only judge a segment whose endpoints are not mid-operation:
       the join/leave triangles rewire pointers leg by leg under the
       mutex. *)
    if final || (Peer.quiet a && Peer.quiet b) then begin
      (match a.Peer.succ with
       | Some s when s == b || n = 1 -> ()
       | Some s when mid_join s -> ()
       | Some s when not s.Peer.alive ->
         err col ~subject:a.Peer.host "t-peer #%d: successor #%d is dead" a.Peer.host
           s.Peer.host
       | Some s ->
         err col ~subject:a.Peer.host "t-peer #%d: successor #%d, expected #%d"
           a.Peer.host s.Peer.host b.Peer.host
       | None -> err col ~subject:a.Peer.host "t-peer #%d: no successor" a.Peer.host);
      match b.Peer.pred with
      | Some p when p == a || n = 1 -> ()
      | Some p when mid_join p -> ()
      | Some p when not p.Peer.alive ->
        err col ~subject:b.Peer.host "t-peer #%d: predecessor #%d is dead" b.Peer.host
          p.Peer.host
      | Some p ->
        err col ~subject:b.Peer.host "t-peer #%d: predecessor #%d, expected #%d"
          b.Peer.host p.Peer.host a.Peer.host
      | None -> err col ~subject:b.Peer.host "t-peer #%d: no predecessor" b.Peer.host
    end
  done;
  (* p_ids must be unique on the ring — a duplicate makes ownership
     ambiguous (conflicts resolve by midpoint at join time). *)
  for i = 0 to n - 2 do
    if arr.(i).Peer.p_id = arr.(i + 1).Peer.p_id then
      err col ~subject:arr.(i).Peer.host "t-peers #%d and #%d share p_id %#x"
        arr.(i).Peer.host
        arr.(i + 1).Peer.host
        arr.(i).Peer.p_id
  done;
  inc.ring_base <- base_if inc (col.acc = [] && !tolerated = 0);
  inc.work <- inc.work + n;
  inc.scanned <- who :: inc.scanned;
  finish col

(* From a clean base every judged segment had [a.succ == b] and
   [b.pred == a].  A segment's verdict reads its two endpoints, so only
   the segments beside a logged ring member can change — a ring merge
   logs the members a removal made neighbours — and the busy count moves
   only on a logged host. *)
let ring_fast inc w arr =
  let n = Array.length arr in
  let bound = World.host_bound w in
  fit_busy inc bound;
  let judge i =
    let a = arr.(i) and b = arr.((i + 1) mod n) in
    inc.work <- inc.work + 1;
    if Peer.quiet a && Peer.quiet b then begin
      (match a.Peer.succ with Some s when s == b -> () | Some _ | None -> raise Give_up);
      match b.Peer.pred with Some p when p == a -> () | Some _ | None -> raise Give_up
    end;
    if i < n - 1 && a.Peer.p_id = b.Peer.p_id then raise Give_up
  in
  List.iter
    (fun p ->
      let h = p.Peer.host in
      if h >= 0 && h < bound then begin
        let busy =
          match ring_member_at w h with
          | Some q when not (Peer.quiet q) -> '\001'
          | Some _ | None -> '\000'
        in
        if Bytes.get inc.busy_mark h <> busy then begin
          inc.ring_busy <- (inc.ring_busy + if busy = '\001' then 1 else -1);
          Bytes.set inc.busy_mark h busy
        end
      end;
      match World.ring_index w p with
      | -1 -> ()
      | i ->
        judge ((i + n - 1) mod n);
        judge i)
    inc.dirty

let ring_symmetry inc ~final who w =
  let arr = World.t_peers w in
  (* rings of one or two members are special-cased: scan them *)
  if Array.length arr < 3 || not (continues inc inc.ring_base) then
    ring_full inc ~final who w arr
  else
    match ring_fast inc w arr with
    | () ->
      inc.ring_base <- inc.runs;
      clean who [ ("ring_busy_peers", float_of_int inc.ring_busy) ]
    | exception Give_up -> ring_full inc ~final who w arr

(* --- finger tables vs the oracle ---------------------------------------- *)

(* The oracle answers with an index into [arr] ([-1] on an empty ring),
   compared by identity: no option per finger. *)
let check_table col w arr p =
  let fingers = World.fingers w p in
  if Array.length fingers <> Id_space.bits then
    err col ~subject:p.Peer.host "t-peer #%d: finger table has %d entries, want %d"
      p.Peer.host (Array.length fingers) Id_space.bits
  else
    for k = 0 to Id_space.bits - 1 do
      let i = World.successor_index w (Id_space.finger_start ~base:p.Peer.p_id k) in
      match fingers.(k) with
      | None when i < 0 -> ()
      | Some f when i >= 0 && f == arr.(i) -> ()
      | Some f when i >= 0 ->
        err col ~subject:p.Peer.host "t-peer #%d: finger[%d] is #%d, oracle says #%d"
          p.Peer.host k f.Peer.host arr.(i).Peer.host
      | None ->
        err col ~subject:p.Peer.host "t-peer #%d: finger[%d] unset, oracle says #%d"
          p.Peer.host k arr.(i).Peer.host
      | Some f ->
        err col ~subject:p.Peer.host "t-peer #%d: finger[%d] is #%d on an empty ring"
          p.Peer.host k f.Peer.host
    done

(* While fresh, a table still stale from the last refresh point is
   recomputed, when read, from the ring the oracle answers on: it agrees
   by construction.  A table that is not stale was written explicitly
   since that point — and logged — or was checked at the base and has
   not changed since, for the ring has not.  So a fast tick checks only
   the logged ring members' tables. *)
let finger_tables inc ~final:_ who w =
  let col = collector who in
  if not (World.fingers_fresh w) then begin
    (* Fingers are refreshed lazily; comparing a stale table against the
       oracle would misreport pending recomputation as damage. *)
    gauge col "fingers_fresh" 0.0;
    inc.fingers_base <- inc.runs;
    finish col
  end
  else begin
    gauge col "fingers_fresh" 1.0;
    let arr = World.t_peers w in
    let fast =
      continues inc inc.fingers_base
      &&
      let probe = collector who in
      List.iter
        (fun p ->
          if World.ring_index w p >= 0 then begin
            inc.work <- inc.work + 1;
            check_table probe w arr p
          end)
        inc.dirty;
      probe.acc = []
    in
    if not fast then begin
      inc.work <- inc.work + Array.length arr;
      inc.scanned <- who :: inc.scanned;
      Array.iter (check_table col w arr) arr
    end;
    inc.fingers_base <- base_if inc (col.acc = []);
    finish col
  end

(* --- s-tree shape and the degree cap ------------------------------------ *)

(* A walker of roots' trees as the full scan walks them, calling
   [on_visit root peer] on every peer reached for the first time.  Built
   once per tick: no closure per root. *)
let tree_walker col ~delta ~first_sight ~on_visit =
  let rec walk root peer =
    if not (first_sight peer.Peer.host) then
      err col ~subject:peer.Peer.host "cycle at peer #%d in s-network of #%d"
        peer.Peer.host root.Peer.host
    else begin
      on_visit root peer;
      if Peer.tree_degree peer > delta then
        err col ~subject:peer.Peer.host "peer #%d: degree %d exceeds cap %d"
          peer.Peer.host (Peer.tree_degree peer) delta;
      (match peer.Peer.t_home with
       | Some home when home == root -> ()
       | Some home ->
         err col ~subject:peer.Peer.host "peer #%d: t_home is #%d, expected #%d"
           peer.Peer.host home.Peer.host root.Peer.host
       | None -> err col ~subject:peer.Peer.host "peer #%d: no t_home" peer.Peer.host);
      if peer.Peer.p_id <> root.Peer.p_id then
        err col ~subject:peer.Peer.host "peer #%d: p_id %#x differs from root #%d"
          peer.Peer.host peer.Peer.p_id root.Peer.host;
      walk_children root peer peer.Peer.children
    end
  and walk_children root peer = function
    | [] -> ()
    | child :: rest ->
      if not child.Peer.alive then
        err col ~subject:peer.Peer.host "peer #%d: child #%d is dead (undetected crash)"
          peer.Peer.host child.Peer.host
      else begin
        (match child.Peer.cp with
         | Some cp when cp == peer -> ()
         | Some cp ->
           err col ~subject:child.Peer.host "child #%d: cp is #%d, not parent #%d"
             child.Peer.host cp.Peer.host peer.Peer.host
         | None ->
           err col ~subject:child.Peer.host "child #%d of #%d: cp unset" child.Peer.host
             peer.Peer.host);
        walk root child
      end;
      walk_children root peer rest
  in
  fun root ->
    (match root.Peer.cp with
     | None -> ()
     | Some cp ->
       err col ~subject:root.Peer.host "root #%d has a connect point (#%d)" root.Peer.host
         cp.Peer.host);
    walk root root

let tree_full sc inc who w =
  let col = collector who in
  let delta = w.World.config.Config.delta in
  (* [first_sight host] is [true] the first time the tick sees [host]:
     a stamp per host below [World.host_bound], and a table for any
     other host — hand-wired peers (tests, fault injection) carry
     negative hosts. *)
  let bound = World.host_bound w in
  fit_hosts sc bound;
  inc.tree_root <- cover inc.tree_root bound (-1);
  inc.root_mark <- cover inc.root_mark bound 0;
  Array.fill inc.tree_root 0 (Array.length inc.tree_root) (-1);
  let epoch = next_epoch sc and stamp = sc.host_stamp and stray = Hashtbl.create 1 in
  let first_sight host =
    if host >= 0 && host < bound then stamp.(host) <> epoch && (stamp.(host) <- epoch; true)
    else (not (Hashtbl.mem stray host)) && (Hashtbl.add stray host (); true)
  in
  let on_visit root p =
    let h = p.Peer.host in
    inc.work <- inc.work + 1;
    if h >= 0 && h < bound then inc.tree_root.(h) <- root.Peer.host
  in
  Array.iter (tree_walker col ~delta ~first_sight ~on_visit) (World.t_peers w);
  inc.tree_base <- base_if inc (col.acc = [] && Hashtbl.length stray = 0);
  inc.scanned <- who :: inc.scanned;
  finish col

(* From a clean base the trees were disjoint and each root's walk clean.
   A walk reads only the peers it reaches, so only a tree that reaches a
   logged peer now, or reached it at the base, can change: the first is
   the root at the end of the peer's cp chain, the second the root its
   last walk recorded.  Those trees are walked again; reaching a peer
   another, unwalked tree still claims gives up, since the two may now
   share it. *)
let tree_fast sc inc who w =
  let delta = w.World.config.Config.delta in
  let bound = World.host_bound w in
  fit_hosts sc bound;
  inc.tree_root <- cover inc.tree_root bound (-1);
  inc.root_mark <- cover inc.root_mark bound 0;
  let picked = next_epoch sc in
  let roots = ref [] in
  let pick q =
    let h = q.Peer.host in
    if inc.root_mark.(h) <> picked then begin
      inc.root_mark.(h) <- picked;
      roots := q :: !roots
    end
  in
  List.iter
    (fun x ->
      let h = x.Peer.host in
      (if h >= 0 && h < bound then
         let r = inc.tree_root.(h) in
         if r >= 0 then Option.iter pick (ring_member_at w r));
      let e = chain_end x 0 in
      if Peer.is_t_peer e && World.ring_index w e >= 0 then pick e)
    inc.dirty;
  let epoch = next_epoch sc and stamp = sc.host_stamp in
  let first_sight host =
    if host < 0 || host >= bound then raise Give_up;
    stamp.(host) <> epoch && (stamp.(host) <- epoch; true)
  in
  let col = collector who in
  let on_visit root p =
    let h = p.Peer.host and rh = root.Peer.host in
    let r = inc.tree_root.(h) in
    inc.work <- inc.work + 1;
    if r >= 0 && r <> rh && inc.root_mark.(r) <> picked && ring_member_at w r <> None then
      raise Give_up;
    inc.tree_root.(h) <- rh
  in
  let walk = tree_walker col ~delta ~first_sight ~on_visit in
  List.iter
    (fun root ->
      walk root;
      if col.acc <> [] then raise Give_up)
    !roots

let tree_structure sc inc ~final:_ who w =
  if continues inc inc.tree_base then
    match tree_fast sc inc who w with
    | () ->
      inc.tree_base <- inc.runs;
      clean who []
    | exception Give_up -> tree_full sc inc who w
  else tree_full sc inc who w

(* --- membership: every live peer hangs under exactly one live root ------ *)

(* A registered peer's verdict, into [col]: the root host it counts under
   in the size-table comparison, or -1.  [odd] counts what leaves no
   base: a rooted s-peer whose connect point is not registered (the fast
   path finds peers through registered parents' child lists), or whose
   root lies outside [0, bound). *)
let member_verdict col ~final ~bound ~in_transit ~odd w p =
  if Peer.is_t_peer p then begin
    (match p.Peer.t_home with
     | Some home when home == p -> ()
     | Some home ->
       err col ~subject:p.Peer.host "t-peer #%d: t_home is #%d, not itself" p.Peer.host
         home.Peer.host
     | None -> err col ~subject:p.Peer.host "t-peer #%d: no t_home" p.Peer.host);
    (match p.Peer.cp with
     | None -> ()
     | Some cp ->
       err col ~subject:p.Peer.host "t-peer #%d has a connect point (#%d)" p.Peer.host
         cp.Peer.host);
    -1
  end
  else
    let last = chain_end p 0 in
    match attachment last with
    | Rooted ->
      let root = last in
      (match p.Peer.t_home with
       | Some home when home == root -> ()
       | Some home ->
         err col ~subject:p.Peer.host "s-peer #%d: t_home is #%d but attached under #%d"
           p.Peer.host home.Peer.host root.Peer.host
       | None -> err col ~subject:p.Peer.host "s-peer #%d: no t_home" p.Peer.host);
      (* the parent side of the edge: a tree walk from the root never
         reaches an s-peer its cp does not list *)
      (match p.Peer.cp with
       | Some cp when not (List.memq p cp.Peer.children) ->
         err col ~subject:p.Peer.host "s-peer #%d: cp #%d does not list it as a child"
           p.Peer.host cp.Peer.host
       | Some cp -> if not (registered w cp) then incr odd
       | None -> ());
      let r = root.Peer.host in
      if r >= 0 && r < bound then r
      else begin
        incr odd;
        -1
      end
    | In_transit ->
      (* a detached subtree walking back to its root — legitimate
         between a graceful leave / promotion and the re-attach *)
      incr in_transit;
      if final then
        err col ~subject:p.Peer.host "s-peer #%d: detached from every s-network" p.Peer.host;
      -1
    | Stranded ->
      let dead = last in
      err col ~subject:p.Peer.host "s-peer #%d: stranded under dead peer #%d" p.Peer.host
        dead.Peer.host;
      -1
    | Cp_cycle ->
      err col ~subject:p.Peer.host "s-peer #%d: cp chain never reaches a root" p.Peer.host;
      -1

let fit_members inc bound =
  inc.root_of <- cover inc.root_of bound (-1);
  inc.by_root <- cover inc.by_root bound 0

let member_full inc ~final who w =
  let col = collector who in
  let in_transit = ref 0 and odd = ref 0 in
  let bound = World.host_bound w in
  fit_members inc bound;
  Array.fill inc.root_of 0 (Array.length inc.root_of) (-1);
  Array.fill inc.by_root 0 (Array.length inc.by_root) 0;
  World.iter_peers w (fun p ->
      let r = member_verdict col ~final ~bound ~in_transit ~odd w p in
      inc.root_of.(p.Peer.host) <- r;
      if r >= 0 then inc.by_root.(r) <- inc.by_root.(r) + 1);
  gauge col "peers_in_transit" (float_of_int !in_transit);
  (* The server's size table is only comparable when nothing is in
     flight; stale entries while peers rejoin are expected. *)
  if !in_transit = 0 then
    World.iter_snet_sizes w (fun host recorded ->
        let actual = if host < bound then inc.by_root.(host) else 0 in
        if recorded <> actual then
          warn col ~subject:host
            "server size table: s-network of #%d recorded as %d, counted %d" host recorded
            actual);
  inc.member_base <- base_if inc (col.acc = [] && !in_transit = 0 && !odd = 0);
  (* at rest every join and leave has ended: one still open waits on a
     lock that never frees *)
  if final then begin
    if w.World.open_joins > 0 then
      err col "%d join(s) begun through Hybrid never ended" w.World.open_joins;
    if w.World.open_leaves > 0 then
      err col "%d leave(s) begun through Hybrid never ended" w.World.open_leaves
  end;
  inc.work <- inc.work + World.peer_count w;
  inc.scanned <- who :: inc.scanned;
  finish col

(* From a clean base every registered s-peer was rooted, listed by its
   registered connect point.  A registered peer's verdict reads its cp
   chain, so it can change only when a peer on that chain is logged —
   and then the peer hangs below the lowest logged one through child
   lists no setter touched ([Peer.set_children] logs a dropped child).
   So the fast path walks the logged peers' subtrees, re-judges the
   registered peers on their hosts, moves the per-root counts by the
   difference, and compares the size table on the rows that moved and
   on the logged peers' rows ([World.set_snet_size] logs its t-peer). *)
let member_fast sc inc who w =
  let bound = World.host_bound w in
  fit_members inc bound;
  fit_hosts sc bound;
  let seen = next_epoch sc and stamp = sc.host_stamp in
  let probe = collector who in
  let in_transit = ref 0 and odd = ref 0 in
  let moved = ref [] in
  let count r by =
    if r >= 0 then begin
      inc.by_root.(r) <- inc.by_root.(r) + by;
      moved := r :: !moved
    end
  in
  let judge_host h =
    if stamp.(h) <> seen then begin
      stamp.(h) <- seen;
      inc.work <- inc.work + 1;
      let r =
        match World.find_peer w ~host:h with
        | Some q -> member_verdict probe ~final:false ~bound ~in_transit ~odd w q
        | None -> -1
      in
      if probe.acc <> [] || !in_transit > 0 || !odd > 0 then raise Give_up;
      let old = inc.root_of.(h) in
      if old <> r then begin
        count old (-1);
        count r 1;
        inc.root_of.(h) <- r
      end
    end
  in
  (* a child list that cycles never ends: cap the walk *)
  let budget = ref ((4 * bound) + 64) in
  let rec walk p =
    let h = p.Peer.host in
    if h < 0 || h >= bound then raise Give_up;
    decr budget;
    if !budget < 0 then raise Give_up;
    judge_host h;
    List.iter walk p.Peer.children
  in
  List.iter walk inc.dirty;
  let compare_row h =
    let recorded = World.snet_entry w h in
    if recorded >= 0 && recorded <> inc.by_root.(h) then raise Give_up
  in
  List.iter (fun p -> compare_row p.Peer.host) inc.dirty;
  List.iter compare_row !moved

let membership sc inc ~final who w =
  if continues inc inc.member_base then
    match member_fast sc inc who w with
    | () ->
      inc.member_base <- inc.runs;
      clean who [ ("peers_in_transit", 0.0) ]
    | exception Give_up -> member_full inc ~final who w
  else member_full inc ~final who w

(* --- data placement (Schemes A and B) ----------------------------------- *)

let data_placement inc ~final who w =
  let col = collector who in
  let arr = World.t_peers w in
  if Array.length arr > 0 then begin
    (* with every registered store empty there is nothing to place *)
    let misplaced = ref 0 in
    if not (no_items w) then begin
      inc.work <- inc.work + World.peer_count w;
      inc.scanned <- who :: inc.scanned;
      let interner = World.interner w in
      (* One item visitor serves the whole tick: the holder being scanned
         and its [t_home] (the peer's own option block) are set before each
         store's scan, so no closure is built per holder. *)
      let holder = ref (-1) and holder_home = ref None in
      let visit kid _ route_id =
        match !holder_home with
        | Some home when not (Peer.covers home route_id) ->
          incr misplaced;
          (* a key's text is read only for a reported item *)
          if !misplaced <= 8 then
            err col ~subject:!holder "item %S (route_id %#x) at #%d outside segment of #%d"
              (Intern.name interner kid) route_id !holder home.Peer.host
        | Some _ | None -> ()
      in
      World.iter_peers w (fun p ->
          if Data_store.size p.Peer.store > 0 then
            match p.Peer.t_home with
            | None -> () (* membership already flags this *)
            | Some home when not home.Peer.alive -> ()
            | Some home ->
              (* While the root or its predecessor is mid-triangle the
                 segment boundary is moving (the leave's loaddump lands
                 before the ring is rewired); judge the segment only when
                 both ends are settled. *)
              let boundary_settled =
                final
                || Peer.quiet home
                   && (match home.Peer.pred with
                       | Some pre -> Peer.quiet pre
                       | None -> false)
              in
              if boundary_settled then begin
                holder := p.Peer.host;
                holder_home := p.Peer.t_home;
                Data_store.iter_id_items p.Peer.store visit
              end);
      if !misplaced > 8 then err col "...and %d more misplaced items" (!misplaced - 8)
    end;
    gauge col "misplaced_items" (float_of_int !misplaced)
  end;
  finish col

(* --- replication factor (durability invariant) -------------------------- *)

let replication_factor sc ~final who w =
  let col = collector who in
  let r = w.World.config.Config.replication_factor in
  if r > 0 then begin
    let pending = w.World.replication_pending in
    gauge col "replication_pending" (float_of_int pending);
    (* Copies are in flight during fan-out/heal windows, and policy
       targets are moving while a join/leave triangle is mid-rewire —
       only a settled system owes the full factor.  Reading the ring
       brings it up to date, so it is read whenever it may decide
       [settled], items or not; only the scan for a busy t-peer waits
       until an under-replicated item needs the answer. *)
    let ring = if final || pending > 0 then [||] else World.t_peers w in
    let settled = lazy (final || (pending = 0 && Array.for_all Peer.quiet ring)) in
    (* Every registered store is on the world interner: one id per key,
       and an interner that never saw a string means no store holds an
       item, so both scans are skipped. *)
    let interner = World.interner w in
    let items = ref 0 and copies = ref 0 and under = ref 0 in
    if Intern.count interner > 0 then begin
      fit_keys sc (Intern.count interner);
      (* a key's stamp is [counted] while its copy tally is live, and
         [checked] once its primary has been checked *)
      let counted = next_epoch sc in
      let checked = next_epoch sc in
      let stamp = sc.key_stamp and copies_of = sc.key_count in
      let count_copy id =
        if stamp.(id) = counted then copies_of.(id) <- copies_of.(id) + 1
        else begin
          stamp.(id) <- counted;
          copies_of.(id) <- 1
        end
      in
      World.iter_peers w (fun p -> Data_store.iter_ids p.Peer.replicas count_copy);
      (* a primary is checked at its first holder in host order *)
      let holder = ref None and expected = ref (-1) in
      let check_primary id =
        let s = stamp.(id) in
        if s <> checked then begin
          stamp.(id) <- checked;
          incr items;
          let have = if s = counted then copies_of.(id) else 0 in
          copies := !copies + have;
          let p = Option.get !holder in
          if !expected < 0 then
            expected := min r (P2p_replication.Policy.expected_copies w ~primary:p);
          if have < !expected then begin
            incr under;
            if !under <= 8 && Lazy.force settled then
              err col ~subject:p.Peer.host "item %S at #%d has %d replica copies, expected %d"
                (Intern.name interner id) p.Peer.host have !expected
          end
        end
      in
      World.iter_peers w (fun p ->
          if Data_store.size p.Peer.store > 0 then begin
            holder := Some p;
            expected := -1;
            Data_store.iter_ids p.Peer.store check_primary
          end)
    end;
    if !under > 8 && Lazy.force settled then
      err col "...and %d more under-replicated items" (!under - 8);
    gauge col "replicated_items" (float_of_int !items);
    gauge col "replica_copies" (float_of_int !copies);
    gauge col "under_replicated" (float_of_int !under);
    gauge col "live_replica_factor"
      (if !items = 0 then 0.0 else float_of_int !copies /. float_of_int !items)
  end;
  finish col

(* --- load balance gauges (Fig. 4's quantity, continuously) -------------- *)

(* The Gini coefficient of [n] sizes summing to [total], given as
   per-size counts ([counts.(s)] sizes equal [s]): the sorted-sample
   formula 2 Σ (i + 1) x_(i) / (n Σ x) - (n + 1) / n, with the ranks read
   off the counts instead of a sort.  The weighted sum takes the same
   float additions in the same order as a walk of the sorted sample
   (a zero adds nothing), so the result is the same float. *)
let gini_of_counts counts ~n ~total =
  if n = 0 || total <= 0 then 0.0
  else begin
    let weighted = ref 0.0 and rank = ref counts.(0) in
    for size = 1 to Array.length counts - 1 do
      let x = float_of_int size in
      for _ = 1 to counts.(size) do
        incr rank;
        weighted := !weighted +. (float_of_int !rank *. x)
      done
    done;
    let nf = float_of_int n in
    ((2.0 *. !weighted) /. (nf *. float_of_int total)) -. ((nf +. 1.0) /. nf)
  end

(* With every registered store empty the gauges are all zero.  Else two
   passes over the stores: totals first, then, only when some store
   holds an item, the per-size counts.  Sizes are integers, so every sum
   is exact and its float is the float sum of the sizes. *)
let load_balance inc ~final:_ who w =
  let col = collector who in
  let n = World.peer_count w in
  let total = ref 0 and top = ref 0 in
  if not (no_items w) then begin
    inc.work <- inc.work + n;
    inc.scanned <- who :: inc.scanned;
    World.iter_peers w (fun p ->
        let size = Data_store.size p.Peer.store in
        total := !total + size;
        if size > !top then top := size)
  end;
  let total = !total in
  let items = float_of_int total in
  gauge col "items_total" items;
  gauge col "items_per_peer_max" (float_of_int !top);
  gauge col "items_per_peer_mean" (if n = 0 then 0.0 else items /. float_of_int n);
  let gini =
    if total = 0 then 0.0
    else begin
      let counts = Array.make (!top + 1) 0 in
      World.iter_peers w (fun p ->
          let size = Data_store.size p.Peer.store in
          counts.(size) <- counts.(size) + 1);
      gini_of_counts counts ~n ~total
    end
  in
  gauge col "items_gini" gini;
  finish col

(* --- bloom_coverage ------------------------------------------------------

   The edge-summary contract ({!Hybrid_p2p.Summaries}): a fresh attenuated
   Bloom summary may only over-approximate — every key actually stored
   (primary or replica) at any member must pass the on-path filter of
   every ancestor edge at a level the flood's budget reaches, or a pruned
   flood could miss data a full flood would find.  The check first forces
   a rebuild of stale trees (pure derived state: no messages, no RNG, so
   simulated results are unchanged), then verifies the contract against
   the live placement.  No-op while summaries are disabled. *)

let bloom_coverage ~final:_ who w =
  let col = collector who in
  if w.World.config.Config.bloom_bits_per_key <= 0 then finish col
  else begin
    let module Summaries = Hybrid_p2p.Summaries in
    let module Bloom = Hybrid_p2p.Bloom in
    let roots = World.t_peers w in
    let stale_at_tick = ref 0 and keys_checked = ref 0 in
    Array.iter
      (fun root ->
        if not (Summaries.fresh w root) then incr stale_at_tick;
        Summaries.ensure_fresh w root;
        (* verify every ancestor edge on the key's root path: a key [dist]
           hops below an edge must sit in a filter level a flood with
           exactly [dist] remaining forwards would consult *)
        let rec check_path child parent ~dist ~key ~holder =
          (match Peer.summary parent child.Peer.host with
           | None -> () (* unsummarized edge: floods never prune it *)
           | Some filters ->
             let levels = min dist (Array.length filters) in
             let rec probe i =
               i < levels && (Bloom.mem filters.(i) key || probe (i + 1))
             in
             if not (probe 0) then
               err col ~subject:holder.Peer.host
                 "key %S held at #%d is invisible to the summary of edge #%d->#%d \
                  (false negative: a flood reaching #%d with %d forwards left \
                  would prune the branch)"
                 key holder.Peer.host parent.Peer.host child.Peer.host
                 parent.Peer.host dist);
          match parent.Peer.cp with
          | Some grand -> check_path parent grand ~dist:(dist + 1) ~key ~holder
          | None -> ()
        in
        let rec walk peer =
          let local =
            List.rev_append
              (Data_store.keys peer.Peer.store)
              (Data_store.keys peer.Peer.replicas)
          in
          (match peer.Peer.cp with
           | Some parent ->
             List.iter
               (fun key ->
                 incr keys_checked;
                 check_path peer parent ~dist:1 ~key ~holder:peer)
               local
           | None -> keys_checked := !keys_checked + List.length local);
          List.iter (fun c -> if c.Peer.alive then walk c) peer.Peer.children
        in
        walk root)
      roots;
    gauge col "trees" (float_of_int (Array.length roots));
    gauge col "trees_stale_at_tick" (float_of_int !stale_at_tick);
    gauge col "keys_checked" (float_of_int !keys_checked);
    finish col
  end

(* --- latency_sanity ------------------------------------------------------

   The span-tree contract ({!P2p_sim.Trace} causal spans + the
   {!P2p_obs.Spans} analyzer): a completed child span's interval lies
   inside its parent's ([begin_span] suppresses children born after the
   parent closed, [end_span] clamps overruns — so an escape means the
   bookkeeping itself broke), and an op's critical-path attribution never
   exceeds its end-to-end latency.  No-op while tracing is off.

   The check keeps a state across ticks and reads only what changed since
   the last one: spans minted, closed or evicted, plus closed children
   whose parent was still open.  A fresh state has seen nothing, so its
   first tick is the full scan.  Facts that make a tick equal a rescan:
   - a span closes at most once, and eviction runs oldest id first, so
     the retained ids form a window [lo, next) that only slides up;
   - a closed child's escape verdict is final once its parent has closed
     too; until then the child is judged again every tick;
   - an op's set of closed retained children changes only when one
     closes or is evicted, so only such a tick re-analyses the op.
   Violating spans and ops stay recorded, and are re-reported every tick,
   until they are evicted. *)

(* An op's closed children and closed roots (several only when an op id
   is re-registered from the wire), by span id: the check reads a span's
   fields from the trace when it judges it, so it holds no copy. *)
type op_entry = {
  e_op : int;
  mutable kids : int list;  (* closed non-root spans; pruned on analysis *)
  mutable roots : int list;  (* closed retained root spans *)
  mutable queued : bool;  (* in [dirty] for this tick's analysis *)
}

(* What the checks carry from tick to tick: [latency_sanity]'s view of
   the trace, and the other checks' scratch arrays, which hold no
   finding from one tick to the next. *)
type state = {
  mutable trace : Trace.t option;  (* the trace the fields below describe *)
  mutable resets : int;
  mutable lo : int;  (* oldest retained span id at the last tick *)
  mutable cursor : int;  (* every span id below it has been ingested *)
  mutable opened : int list;  (* ingested while still open *)
  mutable pending : int list;
      (* closed children whose parent is open or not minted yet *)
  mutable checked : int;  (* retained closed children of closed retained parents *)
  (* Two rings indexed by span id mod their length, which grows with the
     retained window (never past the trace's capacity): *)
  mutable expiry : int array;  (* [checked] entries that end when the id is evicted *)
  mutable kid_op : int array;  (* the op of a closed child span, or [no_op] *)
  mutable escaped : int Int_map.t;  (* child id -> closed parent id: final escapes *)
  ops : (int, op_entry) Hashtbl.t;
  roots : (int, op_entry) Hashtbl.t;  (* closed retained root span id -> its op *)
  mutable dirty : op_entry list;
  mutable bad_ops : Spans.op Int_map.t;  (* root span id -> over-long critical path *)
  scratch : scratch;  (* the other checks' reusable tallies *)
  inc : inc;  (* what the fast paths build on *)
  mutable timed : bool;  (* time each check's runs *)
  mutable times : (string * int ref * float ref) list;  (* newest check first *)
}

let no_op = min_int

let state () =
  {
    trace = None;
    resets = 0;
    lo = 0;
    cursor = 0;
    opened = [];
    pending = [];
    checked = 0;
    expiry = [||];
    kid_op = [||];
    escaped = Int_map.empty;
    ops = Hashtbl.create 64;
    roots = Hashtbl.create 64;
    dirty = [];
    bad_ops = Int_map.empty;
    scratch = scratch ();
    inc = inc ();
    timed = false;
    times = [];
  }

(* Forget everything and start over on [tr] (a first tick, another trace,
   or a trace reset since the last tick). *)
let rebind st tr =
  st.trace <- Some tr;
  st.resets <- Trace.resets tr;
  st.lo <- fst (Trace.span_window tr);
  st.cursor <- st.lo;
  st.opened <- [];
  st.pending <- [];
  st.checked <- 0;
  st.expiry <- [||];
  st.kid_op <- [||];
  st.escaped <- Int_map.empty;
  Hashtbl.reset st.ops;
  Hashtbl.reset st.roots;
  st.dirty <- [];
  st.bad_ops <- Int_map.empty

let op_entry st op =
  match Hashtbl.find_opt st.ops op with
  | Some e -> e
  | None ->
    let e = { e_op = op; kids = []; roots = []; queued = false } in
    Hashtbl.replace st.ops op e;
    e

let queue st e =
  if not e.queued then begin
    e.queued <- true;
    st.dirty <- e :: st.dirty
  end

(* A retained span of [tr]. *)
let span tr id = Option.get (Trace.find tr id)

let escapes (s : Trace.span) ~stop (parent : Trace.span) =
  let pstop = Option.value parent.Trace.span_stop ~default:Float.infinity in
  s.Trace.span_start < parent.Trace.span_start -. 1e-9 || stop > pstop +. 1e-9

(* Slide the window from [st.lo] up to [lo]: drop what the evicted ids
   contributed. *)
let evict st ~lo =
  let cap = Array.length st.expiry in
  for id = st.lo to min lo st.cursor - 1 do
    let slot = id mod cap in
    st.checked <- st.checked - st.expiry.(slot);
    st.expiry.(slot) <- 0;
    (match st.kid_op.(slot) with
     | op when op = no_op -> ()
     | op ->
       st.kid_op.(slot) <- no_op;
       queue st (Hashtbl.find st.ops op));
    match Hashtbl.find_opt st.roots id with
    | None -> ()
    | Some e ->
      Hashtbl.remove st.roots id;
      e.roots <- List.filter (fun r -> r <> id) e.roots;
      st.bad_ops <- Int_map.remove id st.bad_ops;
      queue st e
  done;
  st.lo <- max st.lo lo;
  st.escaped <- Int_map.filter (fun c p -> c >= lo && p >= lo) st.escaped

(* Make the rings hold ids [lo, next) without collisions.  Only ids in
   [lo, st.cursor) have entries (older ones were just evicted), so those
   are the ones to move. *)
let ensure_rings st tr ~lo ~next =
  let size = Array.length st.expiry in
  if next - lo > size then begin
    let n = min (Trace.capacity tr) (max (next - lo) (2 * size)) in
    let expiry = Array.make n 0 and kid_op = Array.make n no_op in
    for id = lo to st.cursor - 1 do
      expiry.(id mod n) <- st.expiry.(id mod size);
      kid_op.(id mod n) <- st.kid_op.(id mod size)
    done;
    st.expiry <- expiry;
    st.kid_op <- kid_op
  end

(* A span seen closed for the first time. *)
let on_close st (s : Trace.span) =
  let id = s.Trace.span_id in
  if s.Trace.parent >= 0 then begin
    let e = op_entry st s.Trace.span_op in
    e.kids <- id :: e.kids;
    st.kid_op.(id mod Array.length st.kid_op) <- s.Trace.span_op;
    queue st e;
    st.pending <- id :: st.pending
  end
  else if s.Trace.parent = -1 then begin
    let e = op_entry st s.Trace.span_op in
    e.roots <- id :: e.roots;
    Hashtbl.replace st.roots id e;
    queue st e
  end

(* Judge the pending children: a child whose parent has closed gets its
   final verdict; one whose parent is open is counted and judged for this
   tick only.  Returns the open-parent count and escapes. *)
let judge_pending st tr ~lo ~next =
  let counted = ref 0 and open_escapes = ref [] in
  st.pending <-
    List.filter
      (fun id ->
        id >= lo
        &&
        let c = span tr id in
        let p = c.Trace.parent in
        let stop = Option.get c.Trace.span_stop in
        match Trace.find tr p with
        | Some parent when parent.Trace.span_stop <> None ->
          let key = min p id in
          let slot = key mod Array.length st.expiry in
          st.checked <- st.checked + 1;
          st.expiry.(slot) <- st.expiry.(slot) + 1;
          if escapes c ~stop parent then st.escaped <- Int_map.add id p st.escaped;
          false
        | Some parent ->
          incr counted;
          if escapes c ~stop parent then open_escapes := (c, parent) :: !open_escapes;
          true
        | None -> p >= next (* not minted yet; below the window it never returns *))
      st.pending;
  (!counted, !open_escapes)

(* Re-analyse the ops whose children or roots changed this tick. *)
let analyse_ops st tr ~lo =
  List.iter
    (fun e ->
      e.queued <- false;
      let kids =
        List.filter (fun k -> k >= lo) e.kids |> List.sort (fun a b -> Int.compare b a)
      in
      e.kids <- kids;
      if e.roots <> [] then begin
        let children = List.map (span tr) kids in
        List.iter
          (fun root ->
            let o = Spans.analyze ~root:(span tr root) children in
            st.bad_ops <-
              (if o.Spans.critical_ms > o.Spans.total_ms +. 1e-6 then
                 Int_map.add root o st.bad_ops
               else Int_map.remove root st.bad_ops))
          e.roots
      end;
      if kids = [] && e.roots = [] then Hashtbl.remove st.ops e.e_op)
    st.dirty;
  st.dirty <- []

let latency_sanity st ~final:_ who w =
  let col = collector who in
  let tr = World.trace w in
  if not (Trace.enabled tr) then finish col
  else begin
    let lo, next = Trace.span_window tr in
    (match st.trace with
     | Some t when t == tr && st.resets = Trace.resets tr && st.cursor <= next -> ()
     | Some _ | None -> rebind st tr);
    evict st ~lo;
    ensure_rings st tr ~lo ~next;
    Trace.iter_spans tr ~from:st.cursor (fun s ->
        if s.Trace.span_stop <> None then on_close st s
        else st.opened <- s.Trace.span_id :: st.opened);
    st.cursor <- next;
    st.opened <-
      List.filter
        (fun id ->
          id >= lo
          &&
          let s = span tr id in
          if s.Trace.span_stop <> None then (on_close st s; false) else true)
        st.opened;
    let counted, open_escapes = judge_pending st tr ~lo ~next in
    analyse_ops st tr ~lo;
    let escaped =
      List.merge
        (fun ((a : Trace.span), _) ((b : Trace.span), _) ->
          Int.compare a.Trace.span_id b.Trace.span_id)
        (List.map (fun (c, p) -> (span tr c, span tr p)) (Int_map.bindings st.escaped))
        (List.sort
           (fun ((a : Trace.span), _) ((b : Trace.span), _) ->
             Int.compare a.Trace.span_id b.Trace.span_id)
           open_escapes)
    in
    List.iteri
      (fun i ((s : Trace.span), (parent : Trace.span)) ->
        if i < 8 then
          err col ?subject:s.Trace.span_src
            "span %d (%s/%s) [%g, %g] escapes parent %d [%g, %g]" s.Trace.span_id
            s.Trace.tier s.Trace.phase s.Trace.span_start (Option.get s.Trace.span_stop)
            parent.Trace.span_id parent.Trace.span_start
            (Option.value parent.Trace.span_stop ~default:Float.infinity))
      escaped;
    let n_escaped = List.length escaped in
    if n_escaped > 8 then err col "...and %d more escaped spans" (n_escaped - 8);
    Int_map.iter
      (fun _ (o : Spans.op) ->
        err col "op %d (%s): critical path %.3f ms exceeds total latency %.3f ms"
          o.Spans.op_id o.Spans.kind o.Spans.critical_ms o.Spans.total_ms)
      st.bad_ops;
    gauge col "spans_checked" (float_of_int (st.checked + counted));
    gauge col "ops_checked" (float_of_int (Hashtbl.length st.roots));
    gauge col "span_mismatches" (float_of_int (Trace.span_mismatches tr));
    gauge col "spans_clamped" (float_of_int (Trace.spans_clamped tr));
    finish col
  end

(* --- catalogue ----------------------------------------------------------- *)

type check = {
  c_name : string;
  c_describe : string;
  c_run : state -> final:bool -> string -> World.t -> status;
      (* the check's own name is threaded in so violations self-attribute;
         [final] switches every in-flight tolerance off; only
         [latency_sanity] carries findings in the state, the others
         reuse its scratch arrays *)
}

let check_name c = c.c_name

let describe c = c.c_describe

let stateless f (_ : state) = f

let with_scratch f st = f st.scratch

let with_inc f st = f st.inc

let all =
  [
    {
      c_name = "ring_symmetry";
      c_describe = "t-ring successor/predecessor symmetry and p_id uniqueness";
      c_run = with_inc ring_symmetry;
    };
    {
      c_name = "finger_tables";
      c_describe = "finger tables agree with the membership oracle (when fresh)";
      c_run = with_inc finger_tables;
    };
    {
      c_name = "tree_structure";
      c_describe = "s-tree acyclicity, cp symmetry, t_home/p_id, degree cap delta";
      c_run = (fun st -> tree_structure st.scratch st.inc);
    };
    {
      c_name = "membership";
      c_describe = "every live peer attached under one live root; server size table";
      c_run = (fun st -> membership st.scratch st.inc);
    };
    {
      c_name = "data_placement";
      c_describe = "every stored item inside its holder's ring segment";
      c_run = with_inc data_placement;
    };
    {
      c_name = "replication_factor";
      c_describe = "every primary item keeps its configured replica count (when r > 0)";
      c_run = with_scratch replication_factor;
    };
    {
      c_name = "bloom_coverage";
      c_describe =
        "s-tree edge summaries never hide stored data (no false negatives)";
      c_run = stateless bloom_coverage;
    };
    {
      c_name = "load_balance";
      c_describe = "items-per-peer spread and Gini coefficient (gauges only)";
      c_run = with_inc load_balance;
    };
    {
      c_name = "latency_sanity";
      c_describe =
        "causal spans nest inside their parents; critical path <= op latency";
      c_run = latency_sanity;
    };
  ]

let names = List.map (fun c -> c.c_name) all

let find name = List.find_opt (fun c -> c.c_name = name) all

let select wanted =
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
      match find name with
      | Some c -> resolve (c :: acc) rest
      | None -> Error name)
  in
  resolve [] wanted

let record_time st name cpu_s =
  match List.find_opt (fun (n, _, _) -> n = name) st.times with
  | Some (_, runs, total) ->
    incr runs;
    total := !total +. cpu_s
  | None -> st.times <- (name, ref 1, ref cpu_s) :: st.times

let run_check st ~final w c =
  if not st.timed then c.c_run st ~final c.c_name w
  else begin
    let t0 = Sys.time () in
    let status = c.c_run st ~final c.c_name w in
    record_time st c.c_name (Sys.time () -. t0);
    status
  end

(* [claim]: this run reads the world's peer journal when it can, and
   restarts it afterwards, so the state's next run reads what changed
   in between.  A ring merge still pending journals first. *)
let run_with st ~final ~claim checks w =
  let inc = st.inc in
  let log = (World.change_log w).Peer.peers in
  if claim then ignore (World.t_peers w : Peer.t array);
  inc.runs <- inc.runs + 1;
  inc.work <- 0;
  inc.scanned <- [];
  inc.fast <-
    claim
    && (match inc.log with Some l -> l == log | None -> false)
    && Change_log.readable log ~gen:inc.gen;
  if inc.fast then
    for i = 0 to Change_log.length log - 1 do
      inc.dirty <- Change_log.get log i :: inc.dirty
    done;
  let statuses = List.map (run_check st ~final w) checks in
  inc.dirty <- [];
  if claim then begin
    inc.log <- Some log;
    inc.gen <- Change_log.restart log ~limit:(max 64 (World.host_bound w / 4))
  end;
  { time = World.now w; statuses }

let run c w = c.c_run (state ()) ~final:false c.c_name w

let reverified st = st.inc.work

let full_scans st = List.rev st.inc.scanned

let time_checks st on = st.timed <- on

let check_times st = List.rev_map (fun (name, runs, cpu_s) -> (name, !runs, !cpu_s)) st.times

let run_all ?state:st ?(checks = all) w =
  match st with
  | Some st -> run_with st ~final:false ~claim:true checks w
  | None -> run_with (state ()) ~final:false ~claim:false checks w

let final w = run_with (state ()) ~final:true ~claim:false all w

let violations snap = List.concat_map (fun s -> s.violations) snap.statuses

let errors vs = List.filter (fun v -> v.severity = Error) vs

let to_result snap =
  match errors (violations snap) with
  | [] -> Ok ()
  | v :: _ -> Result.Error (Printf.sprintf "%s: %s" v.check v.detail)

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s: %s" (severity_to_string v.severity) v.check v.detail
