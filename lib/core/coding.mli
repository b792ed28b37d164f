(** Local linear coding matrices for the Equality Check (Section 3,
    Theorem 1, Appendix C).

    Every directed edge e = (i, j) of capacity z_e carries a fixed
    rho x z_e matrix C_e over GF(2^m); node i transmits Y_e = X_i C_e. A
    matrix set is {e correct} when, for every candidate fault-free subgraph
    H in Omega_k, equality of all X_i is implied by all checks passing —
    equivalently (Appendix C), the expanded matrix C_H has full row rank
    (n-f-1) * rho.

    Field-size note (documented in DESIGN.md): the paper works in
    GF(2^(L/rho)); we stripe instead. A value of L = S * rho * m bits is S
    stripes of rho m-bit symbols, all stripes sharing the same matrices.
    Once the matrices are verified correct, a mismatch in any stripe is
    detected deterministically, so striping preserves the (EC) property
    exactly while keeping symbols in machine ints. Theorem 1's probability
    bound applies per generation attempt with field GF(2^m). *)

open Nab_field
open Nab_matrix
open Nab_graph

type t

val field : t -> Gf2p.t
val rho : t -> int
val matrix : t -> edge:int * int -> Matrix.t
(** The rho x z_e coding matrix of an edge. Raises [Not_found] for
    non-edges. *)

val generate : Digraph.t -> rho:int -> m:int -> seed:int -> t
(** Independent uniform entries from GF(2^m), as in Theorem 1. Deterministic
    in the seed (the matrices are part of the algorithm description, common
    to all nodes). *)

val encode : t -> edge:int * int -> int array -> int array
(** [encode c ~edge x] where [x] has [stripes * rho] symbols (stripe-major)
    returns the [stripes * z_e] coded symbols Y_e = X C_e, stripe by
    stripe. *)

val check : t -> edge:int * int -> x:int array -> received:int array -> bool
(** Does the received vector equal [encode ~edge x]? (Step 2 of
    Algorithm 1; on length mismatch the check fails.) *)

val expanded_matrix : t -> h:Digraph.t -> Matrix.t
(** The Appendix C matrix C_H for a candidate fault-free subgraph [h]:
    (|h|-1) * rho rows, sum-of-capacities columns, built from blocks B_e.
    The reference node (the paper's node "n-f") is the largest vertex id. *)

val correct_for : t -> h:Digraph.t -> bool
(** Full row rank of C_H — i.e. D_H C_H = 0 implies D_H = 0. *)

val is_correct : t -> g:Digraph.t -> omega:Vset.t list -> bool
(** Correct for every induced candidate subgraph H in Omega_k. *)

val generate_correct :
  Digraph.t -> omega:Vset.t list -> rho:int -> m:int -> seed:int ->
  unit -> t * int
(** Resample until {!is_correct}; returns the matrices and the number of
    attempts used (Theorem 1: one attempt succeeds with probability at least
    [1 - failure_bound]). Raises [Failure] after 64 attempts. *)

val failure_bound : n:int -> f:int -> rho:int -> m:int -> float
(** Theorem 1's bound on the probability that a random matrix set is NOT
    correct: 2^(-m) * C(n, n-f) * (n-f-1) * rho (capped at 1). *)
