(* Every metric the benchmark reports, with its unit.  BENCHMARK.json
   lists [end_to_end] and [per_layer]; [dune runtest] checks that the
   two agree.  Each run reports every name of its list: per-layer
   metrics of a layer a workload does not exercise read 0. *)

let end_to_end =
  [ ("setup_s", "s");
    ("ops_per_s", "ops/s");
    ("lookup_p50_ms", "ms");
    ("lookup_p99_ms", "ms");
    ("connum_per_lookup", "peers");
    ("peak_rss_mb", "MB") ]

let phases = [ "setup"; "insert"; "lookup"; "churn" ]

let by_phase name unit = List.map (fun p -> (name ^ "." ^ p, unit)) phases

let per_layer =
  [ ("transit_stub.generate_s", "s"); ("routing.create_s", "s") ]
  @ by_phase "routing.replay_s" "s"
  @ by_phase "routing.messages_routed" "count"
  @ [ ("routing.cold_sources", "count") ]
  @ by_phase "routing.ns_per_message" "ns"
  @ by_phase "routing.share" "ratio"
  @ by_phase "engine.events" "count"
  @ by_phase "engine.events_per_s" "1/s"
  @ [ ("engine.queue_high_water", "count") ]
  @ by_phase "engine.handler_cpu_s" "s"
  @ by_phase "engine.self_cpu_s" "s"
  @ [ ("engine.timer_fires", "count") ]
  @ by_phase "underlay.messages" "count"
  @ by_phase "underlay.physical_hops" "count"
  @ by_phase "underlay.msgs_per_op" "msgs/op"
  @ [ ("hybrid.join_s", "s");
      ("hybrid.join_msgs_per_peer", "msgs/peer");
      ("data_ops.insert_issue_s", "s");
      ("data_ops.lookup_issue_s", "s");
      ("data_ops.lookup_hops_mean", "hops");
      ("s_network.floods", "count");
      ("s_network.flood_visits_per_lookup", "peers/op");
      ("s_network.visits_per_found", "peers/op");
      ("t_network.stabilizations", "count");
      ("failure.crash_s", "s");
      ("failure.repair_s", "s");
      ("failure.elections", "count");
      ("replication.anti_entropy_s", "s");
      ("replication.msgs_per_repair", "msgs/op");
      ("replication.replica_hits", "count");
      ("auditor.ticks", "count");
      ("auditor.tick_s", "s");
      ("auditor.ms_per_tick", "ms");
      ("trace.ops_sampled", "count");
      ("trace.events", "count");
      ("spans.record_s", "s");
      ("export.write_s", "s") ]
  @ by_phase "gc.minor_words_per_event" "words"
  @ by_phase "gc.promoted_words_per_event" "words"
  @ [ ("gc.major_collections", "count"); ("bench.trace_overhead_pct", "%") ]
