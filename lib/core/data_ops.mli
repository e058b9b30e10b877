(** Data insertion and lookup (Section 3.4).

    Both operations try the local s-network first and fall back to the
    t-network: the two-tier flow that lets the hybrid system answer most
    queries cheaply while staying accurate.

    {b Insertion}: the generating peer keeps items its own s-network
    serves; others travel through the t-network to the owning t-peer,
    which either keeps them (placement scheme A, [Store_at_tpeer]) or
    spreads them down its tree by a random walk (scheme B,
    [Spread_to_neighbors]).

    {b Lookup}: a TTL-bounded flood in the covering s-network, reached
    either directly (local data), over a bypass link (Section 5.4), or by
    ring forwarding through the t-network.  A peer holding the item replies
    straight to the requester and stops forwarding; a timer at the
    requester declares failure.  In BitTorrent-style s-networks
    (Section 5.5) the t-peer answers from its tracker index instead of
    flooding. *)

type lookup_outcome =
  | Found of { holder : Peer.t; latency : float; hops : int }
      (** [latency] in simulated ms, [hops] = overlay hops the request
          travelled before the item was located *)
  | Timed_out

(** [insert w ~from ~key ~value ()] stores the item; [on_done] fires
    (at the simulated completion instant) with the final holder and the
    overlay hop count the insertion travelled.  [route_id] overrides the
    routing ID (default: the key's hash) — interest-based s-networks
    (Section 5.3) route a whole category under {!Interest.route_id}.
    A trace operation id is minted at initiation ({!P2p_sim.Trace.begin_op}
    with kind [Insert]); every message the insertion causes carries it. *)
val insert :
  World.t ->
  from:Peer.t ->
  key:string ->
  value:string ->
  ?route_id:P2p_hashspace.Id_space.id ->
  unit ->
  on_done:(holder:Peer.t -> hops:int -> unit) ->
  unit

(** [lookup w ~from ~key ?ttl ~on_result] resolves [key] and reports the
    outcome exactly once — when the value arrives or when the lookup timer
    expires.  [ttl] defaults to the configured flood TTL.  Metrics
    (issued/success/failure counters, latency, connum) are recorded on the
    world's metrics sink.  A trace operation id (kind [Lookup]) is minted
    at initiation and every message of the resolution — ring forwarding,
    s-network flood/walks, and the reply — is a span of it, so the whole
    lookup reads back as its span tree ({!P2p_sim.Trace.spans_of_op}). *)
val lookup :
  World.t ->
  from:Peer.t ->
  key:string ->
  ?ttl:int ->
  ?route_id:P2p_hashspace.Id_space.id ->
  unit ->
  on_result:(lookup_outcome -> unit) ->
  unit

(** {1 Partial / keyword search (Section 5.3)}

    Interest-based s-networks support partial search: the field of
    interest selects the s-network (via its routing ID), and the query
    floods that s-network collecting every key containing the requested
    substring. *)

type keyword_match = { match_key : string; match_holder : Peer.t }

(** [keyword_lookup w ~from ~substring ~route_id ~window ()] floods the
    s-network serving [route_id] and reports, after [window] simulated
    ms, every stored key containing [substring] (with its holder).
    [on_result] fires exactly once.  A trace operation id (kind [Keyword])
    spans the flood and the match replies. *)
val keyword_lookup :
  World.t ->
  from:Peer.t ->
  substring:string ->
  route_id:P2p_hashspace.Id_space.id ->
  ?ttl:int ->
  window:float ->
  unit ->
  on_result:(keyword_match list -> unit) ->
  unit
