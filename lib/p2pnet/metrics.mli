(** Global experiment metrics.

    One instance is threaded through a simulation run and accumulates every
    quantity the paper's evaluation reports:

    - lookup latency (paper Section 6.3, Fig. 6a/6b) — simulated
      milliseconds from issuing a lookup to receiving the data;
    - lookup failure ratio (Fig. 5a/5b);
    - [connum] (Table 2) — the number of peers all lookups contacted;
    - join latency (Fig. 3a validation) — hops and milliseconds;
    - raw message and physical-hop counts (bandwidth proxies).

    Since the observability layer landed, this record is a {e view} over a
    {!P2p_obs.Registry}: every recorder writes a registry metric (under
    the ["underlay"], ["data_ops"], and ["membership"] subsystems) and
    every accessor reads it back, so the legacy API and the exported
    registry snapshot always agree.  Subsystems reach the registry itself
    through {!registry} (or the {!counter} convenience) to record their own
    per-tier quantities next to these. *)

type t

(** [create ?registry ()] — a metrics view over [registry] (a fresh
    registry when omitted). *)
val create : ?registry:P2p_obs.Registry.t -> unit -> t

(** The backing registry, for per-subsystem recording and export. *)
val registry : t -> P2p_obs.Registry.t

(** [counter t ~subsystem ~name] — get-or-create a registry counter;
    shorthand for going through {!registry}. *)
val counter : t -> subsystem:string -> name:string -> P2p_obs.Registry.counter

(** [bump t ~subsystem ~name] increments a registry counter by one. *)
val bump : t -> subsystem:string -> name:string -> unit

(** {1 Recording} *)

val record_message : t -> physical_hops:int -> unit
val record_lookup_issued : t -> unit
val record_lookup_success : t -> latency:float -> hops:int -> unit
val record_lookup_failure : t -> unit
val record_contact : t -> unit
(** one peer contacted (checked its database) during some lookup *)

val record_contacts : t -> int -> unit
val record_join : t -> latency:float -> hops:int -> unit

(** The s-network flood counters [s_network/floods], [flood_visits] and
    [flood_pruned]: one flood started, one peer reached, one child edge
    pruned by its summary.  Each registers on its first increment, as
    {!bump} would, but later increments skip the by-name lookup. *)
val record_flood : t -> unit
val record_flood_visit : t -> unit
val record_flood_pruned : t -> unit

(** {1 Reading} *)

val messages : t -> int
val physical_hops : t -> int
val lookups_issued : t -> int
val lookups_succeeded : t -> int
val lookups_failed : t -> int

(** Failed / issued; [0.] when no lookup was issued. *)
val failure_ratio : t -> float

(** Total peers contacted by all lookups — the paper's [connum]. *)
val connum : t -> int

val lookup_latency : t -> P2p_stats.Summary.t
val lookup_hops : t -> P2p_stats.Summary.t
val join_latency : t -> P2p_stats.Summary.t
val join_hops : t -> P2p_stats.Summary.t

val pp : Format.formatter -> t -> unit
