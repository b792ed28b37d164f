(** Elementary number theory on native ints, for the field-generator
    search. All functions assume non-negative arguments that fit in the
    63-bit native int range.

    Domain safety: the module holds no global mutable state — the
    factoring RNG and factor table are allocated per call — so every
    function may be called concurrently from multiple domains. *)

val prime_divisors : int -> int list
(** Distinct prime divisors in increasing order; [prime_divisors 1 = []].
    Raises [Invalid_argument] on [n <= 0]. Primality is deterministic
    Miller–Rabin over the full native-int range, and factoring is trial
    division then Pollard–Brent rho, so it is fast for any 61-bit input. *)
