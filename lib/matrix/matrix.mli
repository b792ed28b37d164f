(** Dense matrices over a {!Nab_field.Gf2p} field. Entries are field elements
    (ints). Matrices are semantically immutable: every operation returns a
    fresh matrix; {!Gauss} works on internal copies. *)

open Nab_field

type t

val create : int -> int -> t
(** [create rows cols] is the all-zero matrix. Dimensions must be >= 0. *)

val init : int -> int -> (int -> int -> int) -> t
val identity : int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> int

val of_arrays : int array array -> t
(** Copies; raises [Invalid_argument] on ragged input. *)

val raw : t -> int array
(** The underlying row-major buffer, {e not} a copy — the zero-copy entry
    point for {!Nab_field.Kernel} consumers. Callers must treat it as
    read-only; mutating it breaks the immutability contract of every
    matrix sharing the buffer. *)

val of_raw : rows:int -> cols:int -> int array -> t
(** Wrap a row-major buffer of exactly [rows * cols] entries without
    copying. Ownership transfers: the caller must not retain or mutate the
    buffer afterwards. Raises [Invalid_argument] on a length mismatch. *)

val to_arrays : t -> int array array
val row : t -> int -> int array
val col : t -> int -> int array
val transpose : t -> t
val equal : t -> t -> bool
val mul : Gf2p.t -> t -> t -> t

val vec_mul : Gf2p.t -> int array -> t -> int array
(** Row vector times matrix: [vec_mul f x a] has length [cols a]. *)

val mul_vec : Gf2p.t -> t -> int array -> int array
(** Matrix times column vector. *)

val hcat : t -> t -> t
(** Horizontal concatenation; row counts must agree. [hcat] of two 0-column
    matrices with equal rows is allowed. *)

val sub_matrix : t -> row:int -> col:int -> rows:int -> cols:int -> t

val random : Gf2p.t -> int -> int -> Random.State.t -> t
