(* Fig. 5a: lookup failure ratio vs p_s for TTL in {1, 2, 4}.
   Fig. 5b: lookup failure ratio vs crashed fraction for several p_s
   (peers leave abruptly without transferring their data; Section 6.2).
   Durability: Fig 5b's sweep with the replication layer on — failure
   ratio and items lost vs cumulative crashed fraction, r in {0, 1, 2}. *)

open Experiments
module Ascii_plot = P2p_stats.Ascii_plot
module Replication = P2p_replication.Manager

let fig5a ctx ~scale () =
  header "Fig 5a — lookup failure ratio vs p_s, TTL in {1, 2, 4}";
  row "%6s  %10s  %10s  %10s\n" "p_s" "TTL=1" "TTL=2" "TTL=4";
  let collected = ref [] in
  List.iter
    (fun ps ->
      let ratios =
        List.map
          (fun ttl ->
            let b = build ~seed:5 ~ps ~scale () in
            insert_corpus b;
            run_lookups ctx ~ttl b ~count:scale.n_lookups;
            Metrics.failure_ratio (H.metrics b.h))
          [ 1; 2; 4 ]
      in
      match ratios with
      | [ r1; r2; r4 ] ->
        collected := (ps, r1, r2, r4) :: !collected;
        row "%6.2f  %10.4f  %10.4f  %10.4f\n%!" ps r1 r2 r4
      | _ -> assert false)
    ps_sweep;
  let points f = List.rev_map (fun (ps, a, b, c) -> (ps, f (a, b, c))) !collected in
  print_string
    (Ascii_plot.line_chart
       ~series:
         [ { Ascii_plot.name = "TTL=1"; points = points (fun (a, _, _) -> a) };
           { Ascii_plot.name = "TTL=2"; points = points (fun (_, b, _) -> b) };
           { Ascii_plot.name = "TTL=4"; points = points (fun (_, _, c) -> c) } ]
       ())

let fig5b ctx ~scale () =
  header "Fig 5b — lookup failure ratio vs crashed fraction (no load transfer)";
  row "%8s  %10s  %10s  %10s\n" "crashed" "p_s=0.4" "p_s=0.6" "p_s=0.8";
  List.iter
    (fun fraction ->
      let ratios =
        List.map
          (fun ps ->
            let b = build ~seed:6 ~ps ~scale () in
            insert_corpus b;
            let victims =
              Churn.crash_storm ~rng:b.rng ~population:(Array.length b.peers) ~fraction
            in
            Array.iter (fun i -> H.crash b.h b.peers.(i)) victims;
            H.repair b.h;
            H.run b.h;
            run_lookups ctx b ~count:scale.n_lookups;
            Metrics.failure_ratio (H.metrics b.h))
          [ 0.4; 0.6; 0.8 ]
      in
      match ratios with
      | [ a; b; c ] -> row "%8.2f  %10.4f  %10.4f  %10.4f\n%!" fraction a b c
      | _ -> assert false)
    [ 0.0; 0.05; 0.1; 0.15; 0.2; 0.25; 0.3 ]

(* Extends Fig 5b with the durability layer: the crashed fraction
   accumulates in 5%-of-population waves with a repair (and, with r > 0,
   its replication heal) between waves — the sustained-churn regime the
   layer is built for, rather than one simultaneous storm that can wipe a
   primary and all its replicas before any reaction. *)
let durability ctx ~scale () =
  header "Durability — failure ratio & items lost vs crashed fraction (p_s = 0.6, waves of 5%)";
  let factors = [ 0; 1; 2 ] in
  let wave = 0.05 in
  row "%8s  %30s  %30s\n" "crashed" "failure ratio (r=0/1/2)" "items lost (r=0/1/2)";
  let collected = ref [] in
  List.iter
    (fun fraction ->
      let results =
        List.map
          (fun r ->
            let config = { Config.paper with Config.replication_factor = r } in
            let b = build ~config ~seed:6 ~ps:0.6 ~scale () in
            let manager =
              if r > 0 then Some (Replication.install (H.world b.h)) else None
            in
            ignore (manager : Replication.t option);
            insert_corpus b;
            let before = H.total_items b.h in
            let n0 = Array.length b.peers in
            let waves = int_of_float (Float.round (fraction /. wave)) in
            for _ = 1 to waves do
              let live = Array.of_list (H.peers b.h) in
              let per_wave =
                min
                  (int_of_float (Float.round (wave *. float_of_int n0)))
                  (Array.length live - 1)
              in
              let victims =
                Churn.crash_storm ~rng:b.rng ~population:(Array.length live)
                  ~fraction:(float_of_int per_wave /. float_of_int (Array.length live))
              in
              Array.iter (fun i -> H.crash b.h live.(i)) victims;
              H.repair b.h;
              H.run b.h
            done;
            run_lookups ctx b ~count:scale.n_lookups;
            let lost = before - H.total_items b.h in
            (Metrics.failure_ratio (H.metrics b.h), lost))
          factors
      in
      match results with
      | [ (f0, l0); (f1, l1); (f2, l2) ] ->
        collected := (fraction, f0, f1, f2) :: !collected;
        row "%8.2f  %10.4f%10.4f%10.4f  %10d%10d%10d\n%!" fraction f0 f1 f2 l0 l1 l2
      | _ -> assert false)
    [ 0.0; 0.05; 0.1; 0.15; 0.2 ];
  let points f = List.rev_map (fun (fr, a, b, c) -> (fr, f (a, b, c))) !collected in
  print_string
    (Ascii_plot.line_chart
       ~series:
         [ { Ascii_plot.name = "r=0"; points = points (fun (a, _, _) -> a) };
           { Ascii_plot.name = "r=1"; points = points (fun (_, b, _) -> b) };
           { Ascii_plot.name = "r=2"; points = points (fun (_, _, c) -> c) } ]
       ())
