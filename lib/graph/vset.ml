(** Integer vertex sets, shared across the graph and protocol layers. *)

include Set.Make (Int)

let of_range lo hi = of_list (List.init (max 0 (hi - lo + 1)) (fun i -> lo + i))

let pp fmt s =
  Format.fprintf fmt "{@[%a@]}"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ") Format.pp_print_int)
    (elements s)

(* The position of [v] in the ascending array [verts], or -1 when it is
   absent: per-vertex state kept in arrays is indexed this way, since
   vertex ids need not be dense or non-negative. *)
let position (verts : int array) v =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let x = verts.(mid) in
      if x = v then mid else if x < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length verts)
