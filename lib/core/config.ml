type placement = Store_at_tpeer | Spread_to_neighbors

type s_style = Flooding_tree | Random_walks of int | Bittorrent_tracker

type t = {
  delta : int;
  default_ttl : int;
  placement : placement;
  s_style : s_style;
  use_fingers_for_data : bool;
  hello_period : float;
  hello_timeout : float;
  lookup_timeout : float;
  heartbeats : bool;
  bypass_enabled : bool;
  bypass_lifetime : float;
  link_usage_aware : bool;
  transmission_ms : float;
  reflood_attempts : int;
  cache_capacity : int;
  cache_lifetime : float;
  bloom_bits_per_key : int;
  replication_factor : int;
}

let default =
  {
    delta = 3;
    default_ttl = 4;
    placement = Spread_to_neighbors;
    s_style = Flooding_tree;
    use_fingers_for_data = true;
    hello_period = 500.0;
    hello_timeout = 1600.0;
    lookup_timeout = 60_000.0;
    heartbeats = false;
    bypass_enabled = false;
    bypass_lifetime = 30_000.0;
    link_usage_aware = false;
    transmission_ms = 0.0;
    reflood_attempts = 0;
    cache_capacity = 0;
    cache_lifetime = 20_000.0;
    bloom_bits_per_key = 0;
    replication_factor = 0;
  }

let paper = { default with use_fingers_for_data = false }

let validate t =
  if t.delta < 2 then Error "delta must be >= 2"
  else if t.default_ttl < 0 then Error "default_ttl must be >= 0"
  else if t.hello_period <= 0.0 then Error "hello_period must be positive"
  else if t.hello_timeout <= t.hello_period then
    Error "hello_timeout must exceed hello_period"
  else if t.lookup_timeout <= 0.0 then Error "lookup_timeout must be positive"
  else if t.bypass_lifetime <= 0.0 then Error "bypass_lifetime must be positive"
  else if t.transmission_ms < 0.0 then Error "transmission_ms must be >= 0"
  else if t.reflood_attempts < 0 then Error "reflood_attempts must be >= 0"
  else if t.cache_capacity < 0 then Error "cache_capacity must be >= 0"
  else if t.cache_lifetime <= 0.0 then Error "cache_lifetime must be positive"
  else if t.bloom_bits_per_key < 0 then Error "bloom_bits_per_key must be >= 0"
  else if t.replication_factor < 0 then Error "replication_factor must be >= 0"
  else
    match t.s_style with
    | Random_walks walkers when walkers <= 0 ->
      Error "Random_walks needs a positive walker count"
    | Random_walks _ | Flooding_tree | Bittorrent_tracker -> Ok ()
