(** Immutable L-bit values. NAB views the same L bits at several
    granularities: gamma slices of L/gamma bits in Phase 1, rho symbols of
    L/rho bits in the Equality Check. This module is the canonical value
    representation with conversions between the views. Bit order is MSB
    first (bit 0 is the most significant of the value). *)

type t

val create : int -> t
(** All-zero value of the given bit length (>= 0). *)

val length : t -> int

val init : int -> (int -> bool) -> t
(** [init len f] has bit [i] equal to [f i]. The bit-at-a-time reference
    constructor the blit-based {!concat}/{!slice} fast paths are tested
    against. *)

val random : int -> Random.State.t -> t

val random_stream : int -> Random.State.t -> int -> t
(** [random_stream len st] is a memoized input stream: the first call with
    each key [k] draws a fresh [len]-bit value from [st], later calls with
    [k] return that value again. Values depend on first-call order only,
    which is how runs derive their per-instance inputs from a seed. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val concat : t list -> t
val slice : t -> pos:int -> len:int -> t

val split : t -> parts:int -> t list
(** Equal-length parts; raises [Invalid_argument] unless parts divides the
    length. *)

val balanced_sizes : bits:int -> parts:int -> int array
(** Sizes of a balanced split: the first [bits mod parts] parts get
    [ceil(bits/parts)] bits, the rest [floor(bits/parts)]. *)

val split_balanced : t -> parts:int -> t list
(** Split into [parts] consecutive slices with {!balanced_sizes}; works for
    any positive [parts] (Phase 1 uses this when gamma does not divide L). *)

val to_symbols : t -> sym_bits:int -> int array
(** Read as big-endian symbols of [sym_bits] bits each (1 <= sym_bits <= 61,
    sym_bits must divide the length). *)

val of_symbols : sym_bits:int -> int array -> t

val pad_to : t -> int -> t
(** Zero-extend on the right to the given length (no-op if already there). *)

val of_string : string -> t
(** Each byte contributes 8 bits. *)

val to_hex : t -> string
(** Lowercase hex of the packed big-endian bytes, two digits per byte
    (padding bits included, always zero). *)

val of_hex : bits:int -> string -> t
(** Inverse of {!to_hex} given the bit length: [of_hex ~bits (to_hex v)] is
    [v] when [bits = length v]. Raises [Invalid_argument] on a digit count
    that does not match [bits], a non-hex digit, or set padding bits. *)
