(** Binary extension fields GF(2^m) for 1 <= m <= 61.

    Elements are represented as plain [int]s in [0, 2^m); the bits of an
    element are the coefficients of a polynomial over GF(2) reduced modulo an
    irreducible polynomial of degree [m]. All operations are total on reduced
    elements; passing an out-of-range int to an operation is a programming
    error (checked by assertions).

    {2 Domain safety}

    Every operation of this module may be called concurrently from multiple
    domains (e.g. from [Nab_util.Pool] tasks). The module's lazily-built
    mutable state — the per-degree descriptor cache of {!create}, and each
    descriptor's log/antilog tables — is published
    through atomics and built under a single internal mutex, double-checked
    so the hot paths ({!mul}, {!inv}) stay a pure table lookup and never
    contend once a cache is warm. Arithmetic results never depend on which
    domain triggered a cache build. *)

type t
(** A field descriptor: degree, reduction polynomial, cached constants. *)

exception Invalid_degree of int
(** Raised by {!create} when the degree is outside [1, 61]. *)

val create : int -> t
(** [create m] is GF(2^m) with the lexicographically smallest irreducible
    reduction polynomial of degree [m]. Descriptors are cached: calling
    [create m] twice returns the same descriptor. Raises {!Invalid_degree}. *)

val create_with_poly : m:int -> poly:int -> t
(** [create_with_poly ~m ~poly] uses the given reduction polynomial, written
    as a full bit mask including the leading [x^m] term (e.g. GF(2^8) with
    the AES polynomial is [~m:8 ~poly:0x11B]). Raises [Invalid_argument] if
    [poly] does not have degree exactly [m] or is not irreducible. *)

val degree : t -> int
(** Extension degree [m]. *)

val reduction_poly : t -> int
(** The reduction polynomial as a full bit mask including the leading term. *)

val add : t -> int -> int -> int
(** Addition = subtraction = XOR. *)

val sub : t -> int -> int -> int
val mul : t -> int -> int -> int

val inv : t -> int -> int
(** Multiplicative inverse: a table lookup up to degree 16, [a^(2^m - 2)]
    by square-and-multiply above it. Raises [Division_by_zero] on [0]. *)

val div : t -> int -> int -> int
(** [div f a b = mul f a (inv f b)]. Raises [Division_by_zero] if [b = 0]. *)

val random : t -> Random.State.t -> int
(** Uniformly random field element. *)

val random_nonzero : t -> Random.State.t -> int
(** Uniformly random element of the multiplicative group. *)

type exp_table = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val tables : t -> (exp_table * int array) option
(** [(exp, log)] discrete-log tables for [m <= 16], built (once, domain-safe)
    on first call; [None] above the table limit. Sentinel-extended: with
    [s = 2 * (2^m - 1)], [log] maps a nonzero element to its discrete log
    and [log.(0) = s]; [exp] has [2s + 1] entries, the generator powers
    twice over [[0, s)] and zeros over [[s, 2s]]. So
    [exp.{log.(a) + log.(b)} = a * b] for all elements, zero included, and
    [exp.{2^m - 1 - log.(a)}] is the inverse of a nonzero [a]. The tables
    are immutable once published — callers ({!Kernel}) may read them
    freely but must not mutate them. *)
