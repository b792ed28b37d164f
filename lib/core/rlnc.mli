(** Random linear network coding broadcast — the alternative way to achieve
    the Phase-1 rate gamma = MINCUT that the paper's related work builds on
    (Li–Yeung–Cai [13] for the rate, Ho et al. [8] for the randomised,
    purely local construction the Theorem-1 analysis borrows its
    Schwartz–Zippel argument from).

    The source's value is a generation of gamma symbols; every node, every
    round, emits on each outgoing edge of capacity z exactly z fresh random
    linear combinations (coefficients over GF(2^m)) of everything it holds.
    A node decodes once it has gamma independent combinations. Unlike the
    tree packing, no global computation is needed — coding is local — at
    the price of a gamma * m-bit coefficient header per packet and
    probabilistic completion time.

    Fault-free by design: this module exists for the rate comparison against
    {!Phase1} (benchmark ablation); NAB's dispute control is built around
    the deterministic tree schedule. *)

open Nab_net

type result = {
  decoded : (int * Bitvec.t option) list;  (** per node; [None] = not decoded *)
  rounds : int;  (** rounds until everyone decoded (or the cap) *)
  all_decoded : bool;
  wall_time : float;
  payload_bits : int;  (** value bits actually carried, per packet basis *)
  header_bits : int;  (** coefficient-header bits spent in total *)
}

val broadcast :
  net:Transport.t ->
  phase:string ->
  source:int ->
  value:Bitvec.t ->
  gamma:int ->
  m:int ->
  seed:int ->
  unit ->
  result
(** Broadcast [value] from [source] at generation size [gamma] with
    coefficients in GF(2^m). The value length must be a positive multiple
    of [gamma * m]. It gives up after [4 * (n + gamma)] rounds. The
    simulator should carry the target network. *)
