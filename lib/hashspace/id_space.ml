type id = int

let bits = 30

let size = 1 lsl bits

let valid i = i >= 0 && i < size

(* [size] is a power of two, so the mask is the non-negative remainder,
   with no division: every [distance] and [between] goes through here. *)
let normalize i = i land (size - 1)

let distance ~src ~dst = normalize (dst - src)

let between x ~left ~right =
  if left = right then x <> left
  else begin
    let d_right = distance ~src:left ~dst:right in
    let d_x = distance ~src:left ~dst:x in
    d_x > 0 && d_x < d_right
  end

let between_incl_right x ~left ~right =
  x = right || between x ~left ~right

let midpoint ~left ~right =
  (* left = right denotes the full ring (a single-node segment), so the
     whole space minus the endpoint is available. *)
  let gap = if left = right then size else distance ~src:left ~dst:right in
  if gap <= 1 then None else Some (normalize (left + (gap / 2)))

let add i k = normalize (i + k)

let finger_start ~base k =
  if k < 0 || k >= bits then invalid_arg "Id_space.finger_start";
  normalize (base + (1 lsl k))

let pp ppf i = Format.fprintf ppf "%#x" i
