open Nab_field

let zero n = Array.make n 0

let check_same_length a b =
  if Array.length a <> Array.length b then invalid_arg "Vec: length mismatch"

let add f a b =
  check_same_length a b;
  Array.mapi (fun i ai -> Gf2p.add f ai b.(i)) a

let dot f a b =
  check_same_length a b;
  let acc = ref 0 in
  Array.iteri (fun i ai -> acc := Gf2p.add f !acc (Gf2p.mul f ai b.(i))) a;
  !acc

let is_zero a = Array.for_all (fun x -> x = 0) a
