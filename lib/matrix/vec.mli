(** Vectors over a {!Nab_field.Gf2p} field, as plain int arrays. *)

open Nab_field

val zero : int -> int array
val add : Gf2p.t -> int array -> int array -> int array
val dot : Gf2p.t -> int array -> int array -> int
val is_zero : int array -> bool
