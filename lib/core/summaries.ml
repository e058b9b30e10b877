let enabled w = w.World.config.Config.bloom_bits_per_key > 0

let tree_root peer =
  match peer.Peer.t_home with Some home -> home | None -> peer

let fresh w root = root.Peer.summaries_epoch = w.World.summary_epoch

let invalidate_tree peer = Peer.set_summaries_epoch (tree_root peer) (-1)

let invalidate_all w = w.World.summary_epoch <- w.World.summary_epoch + 1

(* Keys a flood visit at [peer] can answer from: primary store plus the
   replica shadow.  Cached copies are deliberately left out — they expire
   on their own schedule and every cacheable item also has a primary in
   the same tree, so omitting them never changes whether a flood succeeds,
   only which holder answers first. *)
let local_keys peer =
  List.rev_append (Data_store.keys peer.Peer.store) (Data_store.keys peer.Peer.replicas)

(* Attenuation levels per edge summary: level [i] holds keys exactly
   [i+1] tree hops below the edge, and the last level absorbs everything
   deeper.  A flood's TTL (4 by default) bounds how far below an edge it
   can still reach, so four levels let a TTL-4 flood check each distance
   it can reach against its own filter. *)
let depth = 4

let rebuild w root =
  let bits_per_key = w.World.config.Config.bloom_bits_per_key in
  (* Postorder walk: [collect peer] fills [peer.summaries] for each live
     child and returns the keys of [peer]'s subtree bucketed by distance
     from [peer] (the last bucket absorbs everything deeper). *)
  let rec collect peer =
    Peer.drop_summaries peer;
    let levels = Array.make depth [] in
    levels.(0) <- local_keys peer;
    List.iter
      (fun child ->
        if child.Peer.alive then begin
          let child_levels = collect child in
          let filters =
            Array.map
              (fun keys ->
                let f = Bloom.create ~expected:(List.length keys) ~bits_per_key in
                List.iter (Bloom.add f) keys;
                f)
              child_levels
          in
          Peer.set_summary peer child.Peer.host filters;
          Array.iteri
            (fun i keys ->
              let j = min (i + 1) (depth - 1) in
              levels.(j) <- List.rev_append keys levels.(j))
            child_levels
        end)
      peer.Peer.children;
    levels
  in
  ignore (collect root : string list array);
  Peer.set_summaries_epoch root w.World.summary_epoch;
  World.bump w ~subsystem:"s_network" ~name:"summary_rebuilds"

let ensure_fresh w peer =
  if enabled w then begin
    let root = tree_root peer in
    if not (fresh w root) then rebuild w root
  end

let note_stored w ~holder ~key =
  if enabled w then begin
    let root = tree_root holder in
    if fresh w root then begin
      (* Add the key to the on-path filter of every ancestor edge.  An
         edge attached after the last rebuild has no summary yet — floods
         never prune such edges, so skipping it is safe, but the walk must
         continue: higher edges do have (now incomplete) summaries. *)
      let rec up child parent dist =
        (match Peer.summary parent child.Peer.host with
         | Some filters -> Bloom.add filters.(min (dist - 1) (Array.length filters - 1)) key
         | None -> ());
        match parent.Peer.cp with
        | Some grand -> up parent grand (dist + 1)
        | None -> ()
      in
      match holder.Peer.cp with
      | Some parent -> up holder parent 1
      | None -> ()
    end
  end

let child_may_hold peer child ~budget ~key =
  match Peer.summary peer child.Peer.host with
  | None -> true
  | Some filters ->
    (* Filter level [i] holds keys [i+1] hops below [peer]; with [budget]
       forwards left the flood reaches levels [0 .. budget-1].  The
       attenuated last level also stands for keys deeper than the flood
       can reach — checking it when the budget covers it only widens the
       answer (false positives, never negatives). *)
    let levels = min (Array.length filters) budget in
    let rec probe i = i < levels && (Bloom.mem filters.(i) key || probe (i + 1)) in
    probe 0
