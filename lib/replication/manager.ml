module World = Hybrid_p2p.World
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config
module Data_store = Hybrid_p2p.Data_store
module Intern = Hybrid_p2p.Intern
module Summaries = Hybrid_p2p.Summaries
module Timer = P2p_sim.Timer
module Trace = P2p_sim.Trace
module Registry = P2p_obs.Registry
module Metrics = P2p_net.Metrics
module Change_log = Hybrid_p2p.Change_log

let subsystem = "replication"

(* --- heal book ---------------------------------------------------------- *)

(* A copy's holder tag names the store holding it ({!Peer.make}):
   ascending tags are host order, each peer's store before its
   replicas. *)
let has_tag holders tag =
  let i = ref 0 in
  while !i < Array.length holders && holders.(!i) <> tag do incr i done;
  !i < Array.length holders

let replica_count holders =
  Array.fold_left (fun n tag -> if Peer.is_replica_tag tag then n + 1 else n) 0 holders

(* [holders] with [tag] added (absent) or dropped (present), ascending. *)
let with_tag holders tag =
  let n = Array.length holders in
  let i = ref 0 in
  while !i < n && holders.(!i) < tag do incr i done;
  Array.init (n + 1) (fun j -> if j < !i then holders.(j) else if j = !i then tag else holders.(j - 1))

let without_tag holders tag =
  if not (has_tag holders tag) then holders
  else begin
    let out = Array.make (Array.length holders - 1) 0 and k = ref 0 in
    Array.iter (fun x -> if x <> tag then begin out.(!k) <- x; incr k end) holders;
    out
  end

(* What a heal pass leaves for the next, and why the next can skip most
   keys.  Per interner id: [holders], the tags of the key's copies as
   the pass left them, ascending ([[||]] for an id no store holds), and
   [primary], the host leading the key, or -1 when the pass gave it none
   (no copy left, or no owner to promote to: [unowned] lists those).
   Per host: [leads], the keys it leads, and [used], the targets those
   keys were last examined against.  A pass leaves every key with a
   primary holding a copy on each target and no replica beside a
   primary, so a key needs the next pass only if a store wrote it or
   a peer holding it entered or left the membership (the world's key
   journal says which, and where), or its primary's targets moved. *)
type book = {
  mutable holders : int array array;
  mutable primary : int array;
  mutable leads : int array;
  mutable used : Peer.t list array;
  mutable moved : int array;  (* per host: the pass that found [used] moved *)
  mutable unowned : int list;
  mutable items : int;  (* keys with a primary *)
  mutable copies : int;  (* their replica copies *)
  (* [Policy.targets], computed once per home and pass *)
  mutable memo_home : Peer.t option array;
  mutable memo_list : Peer.t list array;
  mutable memo_pass : int array;
  mutable pass : int;
  mutable recording : int;  (* the key-journal recording the book follows; 0 = none *)
  (* one pass's scratch *)
  mutable dirty : int array;  (* {!Data_store.entry}s, then the keys examined *)
  mutable found : int array;  (* one key's holders *)
  (* cost, for [--profile] *)
  mutable examined : int;
  mutable full_censuses : int;
  mutable cpu_s : float;
}

let new_book () =
  {
    holders = [||]; primary = [||]; leads = [||]; used = [||]; moved = [||];
    unowned = []; items = 0; copies = 0;
    memo_home = [||]; memo_list = [||]; memo_pass = [||];
    pass = 0; recording = 0;
    dirty = [||]; found = [||];
    examined = 0; full_censuses = 0; cpu_s = 0.0;
  }

(* [a] extended with [fill] to length [n], if shorter *)
let grow a n fill =
  if Array.length a >= n then a
  else begin
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Size the book to the interner's ids and the world's hosts. *)
let fit b w =
  let ids = Intern.count (World.interner w) and hosts = World.host_bound w in
  b.holders <- grow b.holders ids [||];
  b.primary <- grow b.primary ids (-1);
  b.leads <- grow b.leads hosts 0;
  b.used <- grow b.used hosts [];
  b.moved <- grow b.moved hosts 0;
  b.memo_home <- grow b.memo_home hosts None;
  b.memo_list <- grow b.memo_list hosts [];
  b.memo_pass <- grow b.memo_pass hosts 0

type t = {
  w : World.t;
  factor : int;
  copies_written : Registry.counter;
  promoted : Registry.counter;
  re_replicated : Registry.counter;
  bytes_re_replicated : Registry.counter;
  heal_passes : Registry.counter;
  anti_entropy_rounds : Registry.counter;
  digest_mismatches : Registry.counter;
  stale_pruned : Registry.counter;
  live_factor : Registry.gauge;
  mutable heal_timer : Timer.t option;  (* debounced post-crash heal *)
  mutable ae_timer : Timer.t option;  (* periodic anti-entropy *)
  book : book;  (* what the last heal pass left *)
}

let factor t = t.factor

(* --- write-path fan-out ------------------------------------------------ *)

(* One copy per policy target, shipped as ordinary overlay messages
   attributed to the insert's op.  [replication_pending] brackets the
   flight so audit ticks that land mid-fan-out stay quiet. *)
let fan_out t ~op ~holder ~route_id ~key ~value =
  let w = t.w in
  let targets = Policy.targets w ~primary:holder in
  List.iter
    (fun target ->
      w.World.replication_pending <- w.World.replication_pending + 1;
      World.send_span w ?op ~tier:"replication" ~phase:"replicate_copy"
        ~src:holder ~dst:target (fun () ->
          w.World.replication_pending <- w.World.replication_pending - 1;
          if target.Peer.alive && not (Data_store.mem target.Peer.store ~key) then begin
            Data_store.insert_routed target.Peer.replicas ~route_id ~key ~value;
            (* replica copies count as flood-servable keys: the edge
               summaries must learn them or a pruned flood could miss the
               copy once the primary dies *)
            Summaries.note_stored w ~holder:target ~key;
            Registry.incr t.copies_written
          end))
    targets

(* --- heal: promote lost primaries, restore the factor ------------------ *)

let targets_of b w primary =
  match Policy.live_home w ~primary with
  | None -> []
  | Some home as live ->
    let h = home.Peer.host in
    if h < 0 || h >= Array.length b.memo_pass then Policy.home_targets w ~home
    else begin
      match b.memo_home.(h) with
      | Some cached when cached == home && b.memo_pass.(h) = b.pass -> b.memo_list.(h)
      | Some _ | None ->
        let targets = Policy.home_targets w ~home in
        b.memo_home.(h) <- live;
        b.memo_list.(h) <- targets;
        b.memo_pass.(h) <- b.pass;
        targets
    end

(* A dirty entry is a {!Data_store.entry}: the journal's, or one naming
   a key and no holder. *)
let key_entry kid = Data_store.entry ~kid ~tag:(-1)

let push_dirty b m e =
  if m >= Array.length b.dirty then b.dirty <- grow b.dirty (max 64 (2 * m)) 0;
  b.dirty.(m) <- e

(* The census, for a pass with no journal to trust: the book cleared, every
   registered store's copies booked as their keys' holders — counted
   first, so each key's array is made once at its size, then filled in
   host order, which is tag order — and an entry with no tag for every
   key holding one.  Returns the entry count, already in key order. *)
let census b w =
  Array.fill b.holders 0 (Array.length b.holders) [||];
  Array.fill b.primary 0 (Array.length b.primary) (-1);
  Array.fill b.leads 0 (Array.length b.leads) 0;
  Array.fill b.used 0 (Array.length b.used) [];
  b.unowned <- [];
  b.items <- 0;
  b.copies <- 0;
  let count = Array.make (Array.length b.holders) 0 in
  let tally kid = count.(kid) <- count.(kid) + 1 in
  World.iter_peers w (fun p ->
      Data_store.iter_ids p.Peer.store tally;
      Data_store.iter_ids p.Peer.replicas tally);
  let m = ref 0 in
  Array.iteri
    (fun kid c ->
      if c > 0 then begin
        b.holders.(kid) <- Array.make c 0;
        count.(kid) <- 0;
        push_dirty b !m (key_entry kid);
        incr m
      end)
    count;
  World.iter_peers w (fun p ->
      let book tag kid =
        b.holders.(kid).(count.(kid)) <- tag;
        count.(kid) <- count.(kid) + 1
      in
      Data_store.iter_ids p.Peer.store (book (Data_store.tag p.Peer.store));
      Data_store.iter_ids p.Peer.replicas (book (Data_store.tag p.Peer.replicas)));
  !m

(* The keys the journal names, the keys whose primary's targets moved,
   and the keys still unowned, sorted.  Returns the entry count. *)
let gather b w log =
  let m = ref 0 in
  let push e =
    push_dirty b !m e;
    incr m
  in
  for i = 0 to Change_log.length log - 1 do
    push (Change_log.get log i)
  done;
  List.iter (fun kid -> push (key_entry kid)) b.unowned;
  b.unowned <- [];
  let moved = ref false in
  for h = 0 to Array.length b.leads - 1 do
    if b.leads.(h) > 0 then
      match World.find_peer w ~host:h with
      | None -> ()  (* its keys left its stores through journaled writes *)
      | Some p ->
        let targets = targets_of b w p in
        if not (List.equal ( == ) targets b.used.(h)) then begin
          b.used.(h) <- targets;
          b.moved.(h) <- b.pass;
          moved := true
        end
  done;
  if !moved then
    Array.iteri
      (fun kid h -> if h >= 0 && b.moved.(h) = b.pass then push (key_entry kid))
      b.primary;
  let entries = Array.sub b.dirty 0 !m in
  Array.stable_sort Int.compare entries;
  b.dirty <- entries;
  !m

(* Does the store a tag names, at the peer registered on its host, hold
   [kid]? *)
let holds w tag kid =
  match World.find_peer w ~host:(Peer.tag_host tag) with
  | Some p -> Data_store.mem_id (Peer.tagged_store p tag) kid
  | None -> false

(* Phase one for the key whose entries are [dirty.(i) .. dirty.(j - 1)]:
   drop what the book counted for it, find its holders among the booked
   and journaled tags, drop a replica copy beside a primary at the same
   peer, and book the holders left. *)
let examine b w kid i j =
  let booked = b.holders.(kid) in
  let stop = Array.length booked in
  (match b.primary.(kid) with
   | -1 -> ()
   | h ->
     b.items <- b.items - 1;
     b.copies <- b.copies - replica_count booked;
     b.leads.(h) <- b.leads.(h) - 1;
     b.primary.(kid) <- -1);
  if Array.length b.found < stop + (j - i) then b.found <- Array.make (2 * (stop + (j - i))) 0;
  let found = b.found in
  (* merge the booked holders with the journaled tags, both ascending,
     keeping each distinct tag whose store holds the key, and dropping a
     replica copy that directly follows its own peer's primary.  A
     booked tag the journal does not name still holds the key: its
     store wrote nothing since, and its peer stayed registered *)
  let n = ref 0 and last = ref (-1) in
  let a = ref 0 and e = ref i in
  while !a < stop || !e < j do
    let logged = if !e < j then Data_store.entry_tag b.dirty.(!e) else max_int in
    if logged < 0 then incr e
    else begin
      let tag, held =
        if !a < stop && booked.(!a) < logged then begin
          incr a;
          (booked.(!a - 1), true)
        end
        else begin
          if !a < stop && booked.(!a) = logged then incr a;
          incr e;
          (logged, false)
        end
      in
      if tag <> !last then begin
        last := tag;
        if held || holds w tag kid then
          if Peer.is_replica_tag tag && !n > 0 && Peer.tag_host found.(!n - 1) = Peer.tag_host tag then
            match World.find_peer w ~host:(Peer.tag_host tag) with
            | Some p -> Data_store.remove p.Peer.replicas ~key:(Intern.name (World.interner w) kid)
            | None -> assert false
          else begin
            found.(!n) <- tag;
            incr n
          end
      end
    end
  done;
  let same = ref (!n = stop) and x = ref 0 in
  while !same && !x < !n do
    same := found.(!x) = booked.(!x);
    incr x
  done;
  if not !same then b.holders.(kid) <- Array.sub found 0 !n

(* Writes a replica of [kid] on each of [targets] holding no copy, and
   books it; returns [written] plus the count written.  The booked
   holders are the key's copies by now, so no store is probed. *)
let rec place t b kid ~route_id ~value_id targets written =
  match targets with
  | [] -> written
  | target :: rest ->
    let holders = b.holders.(kid) and replica = Data_store.tag target.Peer.replicas in
    if has_tag holders (Data_store.tag target.Peer.store) || has_tag holders replica then
      place t b kid ~route_id ~value_id rest written
    else begin
      let key = Intern.name (World.interner t.w) kid in
      let value = Intern.name (World.interner t.w) value_id in
      Data_store.insert_routed target.Peer.replicas ~route_id ~key ~value;
      b.holders.(kid) <- with_tag b.holders.(kid) replica;
      Registry.incr t.re_replicated;
      Registry.incr t.bytes_re_replicated ~by:(String.length key + String.length value);
      place t b kid ~route_id ~value_id rest (written + 1)
    end

(* Promotes [kid] into the store of [route_id]'s owner, if the ring has
   one; returns it. *)
let promote t b kid ~route_id ~value_id =
  let w = t.w in
  match World.oracle_owner w route_id with
  | None -> None
  | Some owner as promoted ->
    let interner = World.interner w in
    let key = Intern.name interner kid in
    Data_store.insert_routed owner.Peer.store ~route_id ~key
      ~value:(Intern.name interner value_id);
    if w.World.config.Config.s_style = Config.Bittorrent_tracker then
      Peer.set_tracked owner key owner;
    if Data_store.mem_id owner.Peer.replicas kid then begin
      Data_store.remove owner.Peer.replicas ~key;
      b.holders.(kid) <- without_tag b.holders.(kid) (Data_store.tag owner.Peer.replicas)
    end;
    b.holders.(kid) <- with_tag b.holders.(kid) (Data_store.tag owner.Peer.store);
    Registry.incr t.promoted;
    promoted

(* Phase two for an examined key: its value and route are its first
   copy's, its primary the last peer in host order whose store holds
   it.  With no primary left, promote a surviving replica; then write a
   replica on each target without a copy, booking the holders, the
   primary and the totals, and counting the pass's promotions and
   replicas written. *)
let restore t b kid ~promoted ~restored =
  let w = t.w in
  let holders = b.holders.(kid) in
  if Array.length holders > 0 then begin
    let first =
      match World.find_peer w ~host:(Peer.tag_host holders.(0)) with
      | Some p -> Peer.tagged_store p holders.(0)
      | None -> assert false
    in
    let route_id = Data_store.route_of_id first kid and value_id = Data_store.value_id first kid in
    let leader = ref (-1) in
    for x = 0 to Array.length holders - 1 do
      if not (Peer.is_replica_tag holders.(x)) then leader := Peer.tag_host holders.(x)
    done;
    let primary =
      if !leader >= 0 then World.find_peer w ~host:!leader
      else begin
        let owner = promote t b kid ~route_id ~value_id in
        if Option.is_some owner then incr promoted;
        owner
      end
    in
    match primary with
    | None -> b.unowned <- kid :: b.unowned
    | Some primary ->
      let targets = targets_of b w primary in
      restored := place t b kid ~route_id ~value_id targets !restored;
      let h = primary.Peer.host in
      b.primary.(kid) <- h;
      b.leads.(h) <- b.leads.(h) + 1;
      b.used.(h) <- targets;
      b.items <- b.items + 1;
      b.copies <- b.copies + replica_count b.holders.(kid)
  end

(* Synchronous durability pass:

   1. every key whose primary copies all died is promoted from a
      surviving replica back into the current segment owner's store;
   2. every key regains a replica on each current policy target that
      lacks a copy (membership drift moves the target set — copies are
      re-established where reads will look for them, stale copies
      elsewhere are left to anti-entropy);
   3. replica copies co-located with a primary are dropped.

   Runs inside [Failure.repair] (offline path) and from the debounced
   post-crash timer (online path); mutates stores directly — by the time
   it runs, repair has already made structure consistent, and modelling
   the transfer traffic would only re-order identical end states.

   A pass re-examines only the keys that can have changed since the
   last: those the world's key journal names (store writes, and the
   copies of a peer entering or leaving the membership), and those whose
   primary's targets moved (see [book]).  When it has no journal to
   trust — on the first pass, or after it overflowed — a census rebuilds
   the book from every copy and names every key instead.  Either way
   the keys are examined in id order, all shadowed copies dropped
   before any copy is written, so every store receives the writes a
   census of the whole system would make, in the same order.  Key
   strings are fetched only for the copies written. *)
let heal ?op t =
  let w = t.w and b = t.book in
  let started = Sys.time () in
  Registry.incr t.heal_passes;
  let own_op = op = None in
  let op =
    match op with
    | Some op -> op
    | None -> Trace.begin_op (World.trace w) ~time:(World.now w) ~kind:Trace.Replicate "heal"
  in
  let log = (World.change_log w).Peer.keys in
  let full = not (Change_log.readable log ~gen:b.recording) in
  (* the pass books its own writes *)
  Change_log.stop log;
  b.pass <- b.pass + 1;
  fit b w;
  let m =
    if full then begin
      b.full_censuses <- b.full_censuses + 1;
      census b w
    end
    else gather b w log
  in
  (* phase one for every key before phase two writes a copy, as a
     census drops every shadowed copy first; the examined keys are
     compacted to the front of [dirty] *)
  let keys = ref 0 and i = ref 0 in
  while !i < m do
    let kid = Data_store.entry_kid b.dirty.(!i) in
    let j = ref (!i + 1) in
    while !j < m && Data_store.entry_kid b.dirty.(!j) = kid do incr j done;
    examine b w kid !i !j;
    b.dirty.(!keys) <- kid;
    incr keys;
    i := !j
  done;
  let promoted = ref 0 and restored = ref 0 in
  for k = 0 to !keys - 1 do
    restore t b b.dirty.(k) ~promoted ~restored
  done;
  b.examined <- b.examined + !keys;
  (* keep only the book between passes; an insert wave's entries or a
     census's would outweigh it *)
  b.dirty <- [||];
  World.mark_span w ~op ~tier:"replication" ~phase:"heal_step"
    (Printf.sprintf "promoted %d, re-replicated %d" !promoted !restored);
  Registry.set t.live_factor
    (if b.items = 0 then 0.0 else float_of_int b.copies /. float_of_int b.items);
  (* the heal rewrote stores and replica shadows across arbitrary trees;
     cheaper to declare every edge summary stale than to track each move *)
  Summaries.invalidate_all w;
  (* a journal longer than its book costs about what a census does *)
  if t.factor > 0 then b.recording <- Change_log.restart log ~limit:(max 1024 (b.items + b.copies));
  b.cpu_s <- b.cpu_s +. (Sys.time () -. started);
  if own_op then
    Trace.end_op (World.trace w) ~time:(World.now w) ~op
      "promoted %d, re-replicated %d" !promoted !restored

type heal_stats = { passes : int; examined : int; full_censuses : int; cpu_s : float }

let heal_stats t =
  let b = t.book in
  { passes = b.pass; examined = b.examined; full_censuses = b.full_censuses; cpu_s = b.cpu_s }

(* Online failure path: detections arrive once per watching neighbour and
   possibly for several victims of one storm; a single debounced timer
   turns them into one heal after the election/rejoin dust settles. *)
let on_failure t _dead =
  let w = t.w in
  match t.heal_timer with
  | Some timer -> Timer.reset timer
  | None ->
    w.World.replication_pending <- w.World.replication_pending + 1;
    t.heal_timer <-
      Some
        (World.one_shot w ~delay:w.World.config.Config.hello_timeout
           (fun () ->
             t.heal_timer <- None;
             w.World.replication_pending <- w.World.replication_pending - 1;
             heal t))

(* --- anti-entropy ------------------------------------------------------ *)

(* One round: every segment owner digests its s-network's primary items
   and sends the digest to each replica target; a target whose own
   replica digest disagrees pulls the item list and converges on it —
   missing copies are shipped, stale copies inside the segment pruned.
   Message-for-message this is the classic push-pull digest exchange,
   attributed to one [Anti_entropy] trace op per round. *)
let anti_entropy_round t =
  let w = t.w in
  Registry.incr t.anti_entropy_rounds;
  let op =
    Trace.begin_op (World.trace w) ~time:(World.now w) ~kind:Trace.Anti_entropy ""
  in
  let homes = Array.copy (World.t_peers w) in
  let segments = ref 0 and mismatches = ref 0 in
  Array.iter
    (fun home ->
      let left = Peer.segment_left home in
      let right = home.Peer.p_id in
      let items =
        List.concat_map
          (fun member -> Data_store.segment_items member.Peer.store ~left ~right)
          (Peer.tree_members home)
      in
      let digest = Data_store.digest_items items in
      List.iter
        (fun target ->
          incr segments;
          w.World.replication_pending <- w.World.replication_pending + 1;
          World.send_span w ~op ~tier:"replication" ~phase:"digest_push"
            ~src:home ~dst:target (fun () ->
              w.World.replication_pending <- w.World.replication_pending - 1;
              if
                target.Peer.alive
                && Data_store.segment_digest target.Peer.replicas ~left ~right
                   <> digest
              then begin
                incr mismatches;
                Registry.incr t.digest_mismatches;
                (* pull: the target asks for the list and converges *)
                w.World.replication_pending <- w.World.replication_pending + 1;
                World.send_span w ~op ~tier:"replication" ~phase:"digest_pull"
                  ~src:target ~dst:home (fun () ->
                    w.World.replication_pending <- w.World.replication_pending - 1;
                    if target.Peer.alive then begin
                      let wanted = Hashtbl.create (List.length items) in
                      List.iter
                        (fun (key, value, route_id) ->
                          Hashtbl.replace wanted key ();
                          match Data_store.find target.Peer.replicas ~key with
                          | Some v when v = value -> ()
                          | Some _ | None ->
                            if not (Data_store.mem target.Peer.store ~key) then begin
                              Data_store.insert_routed target.Peer.replicas ~route_id
                                ~key ~value;
                              Summaries.note_stored w ~holder:target ~key;
                              Registry.incr t.copies_written;
                              Registry.incr t.bytes_re_replicated
                                ~by:(String.length key + String.length value)
                            end)
                        items;
                      List.iter
                        (fun (key, _, _) ->
                          if not (Hashtbl.mem wanted key) then begin
                            Data_store.remove target.Peer.replicas ~key;
                            Registry.incr t.stale_pruned
                          end)
                        (Data_store.segment_items target.Peer.replicas ~left ~right)
                    end)
              end))
        (Policy.ring_successors w ~home ~factor:t.factor))
    homes;
  Trace.end_op (World.trace w) ~time:(World.now w) ~op
    "%d segment digests, %d mismatches" !segments !mismatches

(* Simulated ms between anti-entropy rounds.  A heal pass runs one hello
   timeout (1,600 ms by default) after a membership change; rounds about
   three of those apart let the pending heal land first, so a round
   digests the drift heals leave behind (dropped or stale copies)
   instead of racing them. *)
let anti_entropy_interval = 5_000.0

let start t =
  if t.factor > 0 && t.ae_timer = None then
    t.ae_timer <-
      Some (World.periodic t.w ~period:anti_entropy_interval (fun () -> anti_entropy_round t))

let stop t =
  match t.ae_timer with
  | Some timer ->
    Timer.cancel timer;
    t.ae_timer <- None
  | None -> ()

(* --- wiring ------------------------------------------------------------ *)

let install w =
  let reg = Metrics.registry w.World.metrics in
  let counter name = Registry.counter reg ~subsystem ~name in
  (* pre-register the read-path counter [Data_ops] bumps by name, so the
     report shows the zero row even before the first fallback hit *)
  ignore (counter "replica_hits" : Registry.counter);
  let t =
    {
      w;
      factor = w.World.config.Config.replication_factor;
      copies_written = counter "copies_written";
      promoted = counter "promoted";
      re_replicated = counter "re_replicated";
      bytes_re_replicated = counter "bytes_re_replicated";
      heal_passes = counter "heal_passes";
      anti_entropy_rounds = counter "anti_entropy_rounds";
      digest_mismatches = counter "digest_mismatches";
      stale_pruned = counter "stale_pruned";
      live_factor = Registry.gauge reg ~subsystem ~name:"live_replica_factor";
      heal_timer = None;
      ae_timer = None;
      book = new_book ();
    }
  in
  Registry.set
    (Registry.gauge reg ~subsystem ~name:"replication_factor")
    (float_of_int t.factor);
  if t.factor > 0 then begin
    w.World.on_stored <- Some (fan_out t);
    w.World.on_peer_failure <- Some (on_failure t);
    w.World.on_repaired <- Some (fun ~op -> heal ?op t)
  end;
  t
