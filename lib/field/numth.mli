(** Elementary number theory on native ints (used for field-generator search
    and test oracles). All functions assume non-negative arguments that fit in
    the 63-bit native int range.

    Domain safety: the module holds no global mutable state — {!factor}'s
    RNG and factor table are allocated per call — so every function may be
    called concurrently from multiple domains. *)

val mulmod : int -> int -> int -> int
(** [mulmod a b n] is [a * b mod n] without intermediate overflow, for
    [0 <= a, b < n <= 2^61]. *)

val powmod : int -> int -> int -> int
(** [powmod b e n] is [b^e mod n] for [e >= 0], [1 <= n <= 2^61]. *)

val is_prime : int -> bool
(** Deterministic Miller–Rabin for the full native-int range. *)

val factor : int -> (int * int) list
(** Prime factorization as [(prime, multiplicity)] pairs in increasing prime
    order. [factor 1 = []]. Raises [Invalid_argument] on [n <= 0]. Uses trial
    division then Pollard–Brent rho, so it is fast for any 61-bit input. *)

val prime_divisors : int -> int list
(** Distinct prime divisors in increasing order. *)
