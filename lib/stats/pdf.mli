(** Empirical probability density functions over integer observations.

    The paper's Fig. 4 plots the PDF of the number of data items stored per
    peer.  This module turns a {!Histogram.t} into a normalized density and
    extracts the headline quantities quoted in the paper (fraction of peers
    with zero items, fraction below a threshold, maximum load). *)

type point = { value : int; density : float }

(** [of_histogram h ~bin_width] is the normalized PDF with the given bin
    width: each point's [density] is the fraction of observations falling in
    [\[value, value + bin_width)]. *)
val of_histogram : Histogram.t -> bin_width:int -> point list

(** Fraction of observations equal to zero. *)
val fraction_zero : Histogram.t -> float

(** [fraction_below h v] is the fraction of observations strictly less than
    [v]. *)
val fraction_below : Histogram.t -> int -> float

(** Largest observation, [0] when empty. *)
val max_load : Histogram.t -> int
