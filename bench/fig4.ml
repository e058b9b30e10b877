(* Fig. 4: probability density functions of the number of data items per
   peer under the two placement schemes (Section 3.4), for
   p_s in {0, 0.4, 0.9}.  Prints the headline quantities the paper quotes
   (fraction of peers with no items, fraction below a threshold, maximum
   per-peer load) and the binned PDF series. *)

open Experiments
module Pdf = P2p_stats.Pdf
module Histogram = P2p_stats.Histogram

let run_one ~scale ~placement ~ps ~label =
  let config = { Config.paper with Config.placement } in
  let b = build ~config ~seed:4 ~ps ~scale () in
  insert_corpus b;
  let dist = H.data_distribution b.h in
  let max_load = Pdf.max_load dist in
  row
    "%-22s p_s=%.1f: %4.1f%% of peers hold 0 items, %4.1f%% hold <10, %4.1f%% hold <20, max %d items\n%!"
    label ps
    (100.0 *. Pdf.fraction_zero dist)
    (100.0 *. Pdf.fraction_below dist 10)
    (100.0 *. Pdf.fraction_below dist 20)
    max_load;
  dist

let pdf_series dist =
  let width = Stdlib.max 1 ((Pdf.max_load dist / 25) + 1) in
  Pdf.of_histogram dist ~bin_width:width

let run ~scale () =
  header "Fig 4 — PDF of data items per peer, two placement schemes";
  let subfigures =
    [ ("4a scheme A (t-peer)", Config.Store_at_tpeer, 0.0);
      ("4b scheme A (t-peer)", Config.Store_at_tpeer, 0.4);
      ("4c scheme A (t-peer)", Config.Store_at_tpeer, 0.9);
      ("4d scheme B (spread)", Config.Spread_to_neighbors, 0.0);
      ("4e scheme B (spread)", Config.Spread_to_neighbors, 0.4);
      ("4f scheme B (spread)", Config.Spread_to_neighbors, 0.9) ]
  in
  let dists =
    List.map
      (fun (label, placement, ps) ->
        (label, run_one ~scale ~placement ~ps ~label))
      subfigures
  in
  row "\nBinned PDF series (items-per-peer  density):\n";
  List.iter
    (fun (label, dist) ->
      row "--- Fig %s ---\n" label;
      List.iter
        (fun { Pdf.value; density } ->
          if density > 0.0 then row "%6d  %.4f\n" value density)
        (pdf_series dist))
    dists
