(* Table 2: total connum — the number of peers all lookups contacted —
   for p_s x TTL in {1, 2, 4} (Section 6.3).  The paper's simulation
   forwards data requests linearly along the ring, so connum at p_s = 0 is
   about N/2 per lookup and falls roughly linearly as p_s grows; TTL only
   matters at high p_s, where floods cover big s-networks. *)

open Experiments

let run ctx ~scale () =
  header "Table 2 — total connum under different p_s and TTL values";
  row "%6s  %12s  %12s  %12s\n" "p_s" "TTL=1" "TTL=2" "TTL=4";
  List.iter
    (fun ps ->
      let connums =
        List.map
          (fun ttl ->
            let b = build ~seed:10 ~ps ~scale () in
            insert_corpus b;
            let before = Metrics.connum (H.metrics b.h) in
            run_lookups ctx ~ttl b ~count:scale.n_lookups;
            Metrics.connum (H.metrics b.h) - before)
          [ 1; 2; 4 ]
      in
      match connums with
      | [ c1; c2; c4 ] -> row "%6.2f  %12d  %12d  %12d\n%!" ps c1 c2 c4
      | _ -> assert false)
    ps_sweep
