(* Test runner: one Alcotest section per library module. *)

let () =
  Alcotest.run "hybrid_p2p"
    [
      ("sim.rng", Test_rng.suite);
      ("sim.engine", Test_sim.suite);
      ("stats", Test_stats.suite);
      ("hashspace", Test_hashspace.suite);
      ("topology", Test_topology.suite);
      ("p2pnet", Test_p2pnet.suite);
      ("gnutella", Test_gnutella.suite);
      ("workload", Test_workload.suite);
      ("hybrid.peer", Test_peer.suite);
      ("hybrid.world", Test_world.suite);
      ("hybrid.networks", Test_networks.suite);
      ("hybrid.schedules", Schedules.suite);
      ("hybrid.data+failure", Test_data_failure.suite);
      ("replication", Test_replication.suite);
      ("hybrid.system", Test_hybrid.suite);
      ("hybrid.extensions", Test_extensions.suite);
      ("hybrid.accel", Test_accel.suite);
      ("observability", Test_obs.suite);
      ("observability.spans", Test_spans.suite);
      ("sim.trace-log", Test_trace_log.suite);
      ("audit", Test_audit.suite);
      ("tools", Test_tools.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("analysis", Test_analysis.suite);
      ("scale", Test_scale.suite);
      ("transport", Test_transport.suite);
      ("properties", Test_properties.suite);
      ("properties.extensions", Test_properties2.suite);
    ]
