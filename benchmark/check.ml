(* A correctness check that failed makes the whole run invalid; the
   message names the check. *)
exception Failed of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Failed msg)) fmt

(* Deterministic counts of one seeded run, compared across repeats and
   against the in-process replay. *)
let same_counts ~what expected actual =
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name actual with
      | Some w when w = v -> ()
      | Some w -> fail "%s: %s is %d, expected %d" what name w v
      | None -> fail "%s: no %s count" what name)
    expected
