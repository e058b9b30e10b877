type point = { value : int; density : float }

let of_histogram h ~bin_width =
  let total = Histogram.total h in
  if total = 0 then []
  else
    Histogram.rebin h ~width:bin_width
    |> List.map (fun (value, count) ->
           { value; density = float_of_int count /. float_of_int total })

let fraction_zero h = Histogram.fraction h 0

let fraction_below h v = if v <= 0 then 0.0 else Histogram.fraction_at_most h (v - 1)

let max_load h = Stdlib.max 0 (Histogram.max_value h)
