(* OCaml runtime gauges under subsystem "gc".  Allocation is read from
   Gc.counters, which is current at every call: its minor figure is the
   one Gc.minor_words reads, and its major and promoted figures move with
   each direct major allocation.  The heap size and collection counts
   come from Gc.quick_stat, whose figures OCaml 5 samples only at a
   collection; [finish] runs one minor collection first so a run's last
   reading is its own, not the last collection's (a small run may end
   before any collection, and then read 0).  Neither read walks the
   heap, so updating on every sampler tick is safe even at million-peer
   scale.  The allocation rate is the ROADMAP's hot-path signal: minor+
   major words allocated per host CPU second. *)

let word_bytes = float_of_int (Sys.word_size / 8)

type t = {
  alloc_rate : Registry.gauge;
  allocated_total : Registry.gauge;
  heap : Registry.gauge;
  minor : Registry.gauge;
  major : Registry.gauge;
  compactions : Registry.gauge;
  mutable last_words : float;
  mutable last_cpu : float;
  base_words : float; (* allocation before [create]: not ours to report *)
}

(* minor + major, promotions not double-counted *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let create reg =
  let g name = Registry.gauge reg ~subsystem:"gc" ~name in
  let words = allocated_words () in
  {
    alloc_rate = g "alloc_rate_mb_s";
    allocated_total = g "allocated_mb_total";
    heap = g "heap_mb";
    minor = g "minor_collections";
    major = g "major_collections";
    compactions = g "compactions";
    last_words = words;
    last_cpu = Sys.time ();
    base_words = words;
  }

let update t =
  let words = allocated_words () in
  let s = Gc.quick_stat () in
  let cpu = Sys.time () in
  let dt = cpu -. t.last_cpu in
  if dt > 0.0 then begin
    Registry.set t.alloc_rate
      ((words -. t.last_words) *. word_bytes /. dt /. 1e6);
    t.last_words <- words;
    t.last_cpu <- cpu
  end;
  Registry.set t.allocated_total ((words -. t.base_words) *. word_bytes /. 1e6);
  Registry.set t.heap (float_of_int s.Gc.heap_words *. word_bytes /. 1e6);
  Registry.set t.minor (float_of_int s.Gc.minor_collections);
  Registry.set t.major (float_of_int s.Gc.major_collections);
  Registry.set t.compactions (float_of_int s.Gc.compactions)

let finish t =
  Gc.minor ();
  update t
