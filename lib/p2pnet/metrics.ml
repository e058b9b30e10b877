module Summary = P2p_stats.Summary
module Registry = P2p_obs.Registry

(* The legacy flat record is now a set of handles into a Registry: every
   recording lands in the registry (where per-subsystem exports read it),
   and every legacy accessor reads back out of it, so the two views cannot
   diverge. *)
type t = {
  registry : Registry.t;
  messages : Registry.counter;
  physical_hops : Registry.counter;
  lookups_issued : Registry.counter;
  lookups_succeeded : Registry.counter;
  lookups_failed : Registry.counter;
  connum : Registry.counter;
  lookup_latency : Registry.histogram;
  lookup_hops : Registry.histogram;
  join_latency : Registry.histogram;
  join_hops : Registry.histogram;
  floods : Registry.counter Lazy.t;
  flood_visits : Registry.counter Lazy.t;
  flood_pruned : Registry.counter Lazy.t;
}

(* A counter registered on its first increment, as a by-name bump would
   register it: a run that never floods exports no flood counters, and
   the registry's order does not move. *)
let on_first_use registry ~subsystem ~name =
  lazy (Registry.counter registry ~subsystem ~name)

let create ?registry () =
  let registry = match registry with Some r -> r | None -> Registry.create () in
  {
    registry;
    messages = Registry.counter registry ~subsystem:"underlay" ~name:"messages";
    physical_hops = Registry.counter registry ~subsystem:"underlay" ~name:"physical_hops";
    lookups_issued = Registry.counter registry ~subsystem:"data_ops" ~name:"lookups_issued";
    lookups_succeeded =
      Registry.counter registry ~subsystem:"data_ops" ~name:"lookups_succeeded";
    lookups_failed = Registry.counter registry ~subsystem:"data_ops" ~name:"lookups_failed";
    connum = Registry.counter registry ~subsystem:"data_ops" ~name:"connum";
    lookup_latency =
      Registry.histogram registry ~subsystem:"data_ops" ~name:"lookup_latency_ms";
    lookup_hops = Registry.histogram registry ~subsystem:"data_ops" ~name:"lookup_hops";
    join_latency =
      Registry.histogram registry ~subsystem:"membership" ~name:"join_latency_ms";
    join_hops = Registry.histogram registry ~subsystem:"membership" ~name:"join_hops";
    floods = on_first_use registry ~subsystem:"s_network" ~name:"floods";
    flood_visits = on_first_use registry ~subsystem:"s_network" ~name:"flood_visits";
    flood_pruned = on_first_use registry ~subsystem:"s_network" ~name:"flood_pruned";
  }

let registry t = t.registry

let counter t ~subsystem ~name = Registry.counter t.registry ~subsystem ~name

let bump t ~subsystem ~name = Registry.incr (counter t ~subsystem ~name)

let record_message t ~physical_hops =
  Registry.incr t.messages;
  Registry.incr ~by:physical_hops t.physical_hops

let record_lookup_issued t = Registry.incr t.lookups_issued

let record_lookup_success t ~latency ~hops =
  Registry.incr t.lookups_succeeded;
  Registry.observe t.lookup_latency latency;
  Registry.observe t.lookup_hops (float_of_int hops)

let record_lookup_failure t = Registry.incr t.lookups_failed

let record_contact t = Registry.incr t.connum

let record_contacts t n = Registry.incr ~by:n t.connum

let record_flood t = Registry.incr (Lazy.force t.floods)

let record_flood_visit t = Registry.incr (Lazy.force t.flood_visits)

let record_flood_pruned t = Registry.incr (Lazy.force t.flood_pruned)

let record_join t ~latency ~hops =
  Registry.observe t.join_latency latency;
  Registry.observe t.join_hops (float_of_int hops)

let messages t = Registry.counter_value t.messages
let physical_hops t = Registry.counter_value t.physical_hops
let lookups_issued t = Registry.counter_value t.lookups_issued
let lookups_succeeded t = Registry.counter_value t.lookups_succeeded
let lookups_failed t = Registry.counter_value t.lookups_failed

let failure_ratio t =
  if lookups_issued t = 0 then 0.0
  else float_of_int (lookups_failed t) /. float_of_int (lookups_issued t)

let connum t = Registry.counter_value t.connum

let lookup_latency t = Registry.summary t.lookup_latency
let lookup_hops t = Registry.summary t.lookup_hops
let join_latency t = Registry.summary t.join_latency
let join_hops t = Registry.summary t.join_hops

let pp ppf t =
  Format.fprintf ppf
    "@[<v>messages: %d (physical hops %d)@,lookups: %d issued, %d ok, %d failed (ratio %.4f)@,connum: %d@,lookup latency: %a@,join latency: %a@]"
    (messages t) (physical_hops t) (lookups_issued t) (lookups_succeeded t)
    (lookups_failed t) (failure_ratio t) (connum t) Summary.pp (lookup_latency t)
    Summary.pp (join_latency t)
