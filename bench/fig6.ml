(* Fig. 6a: average lookup latency vs p_s with and without link
   heterogeneity (Section 5.1: high-capacity peers become t-peers and
   connect points are chosen by link usage).
   Fig. 6b: average lookup latency vs p_s with and without topology
   awareness (Section 5.2: landmark binning with 8 and 12 landmarks). *)

open Experiments
module Summary = P2p_stats.Summary
module Ascii_plot = P2p_stats.Ascii_plot

let mean_latency ctx ?config ~scale ~ps ~heterogeneity ~landmarks ~seed () =
  let b = build ?config ~seed ~ps ~heterogeneity ~landmarks ~scale () in
  insert_corpus b;
  run_lookups ctx b ~count:scale.n_lookups;
  Summary.mean (Metrics.lookup_latency (H.metrics b.h))

let fig6a ctx ~scale () =
  header "Fig 6a — average lookup latency (ms) vs p_s, +/- link heterogeneity";
  row "%6s  %12s  %16s\n" "p_s" "basic" "heterogeneity";
  (* access-link transmission cost makes capacity matter, as in NS2 *)
  let config = { Config.paper with Config.transmission_ms = 40.0 } in
  let collected = ref [] in
  List.iter
    (fun ps ->
      let basic =
        mean_latency ctx ~config ~scale ~ps ~heterogeneity:false ~landmarks:0 ~seed:8 ()
      in
      let hetero =
        mean_latency ctx ~config ~scale ~ps ~heterogeneity:true ~landmarks:0 ~seed:8 ()
      in
      collected := (ps, basic, hetero) :: !collected;
      row "%6.2f  %12.2f  %16.2f\n%!" ps basic hetero)
    ps_sweep;
  print_string
    (Ascii_plot.line_chart
       ~series:
         [ { Ascii_plot.name = "basic";
             points = List.rev_map (fun (ps, b, _) -> (ps, b)) !collected };
           { Ascii_plot.name = "heterogeneity";
             points = List.rev_map (fun (ps, _, h) -> (ps, h)) !collected } ]
       ())

let fig6b ctx ~scale () =
  header "Fig 6b — average lookup latency (ms) vs p_s, +/- topology awareness";
  row "%6s  %12s  %14s  %14s\n" "p_s" "basic" "8 landmarks" "12 landmarks";
  List.iter
    (fun ps ->
      let basic = mean_latency ctx ~scale ~ps ~heterogeneity:false ~landmarks:0 ~seed:9 () in
      let l8 = mean_latency ctx ~scale ~ps ~heterogeneity:false ~landmarks:8 ~seed:9 () in
      let l12 = mean_latency ctx ~scale ~ps ~heterogeneity:false ~landmarks:12 ~seed:9 () in
      row "%6.2f  %12.2f  %14.2f  %14.2f\n%!" ps basic l8 l12)
    ps_sweep
