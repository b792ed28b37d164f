(** Phase 3 — Dispute Control (Section 2, Appendix B).

    Every node Byzantine-broadcasts (via {!Nab_classic.Eig}, the paper's [6])
    the messages it claims to have sent and received during Phases 1 and 2;
    the source additionally broadcasts its L-bit input, which doubles as the
    agreed output of the instance (DC1). From the agreed claims, every
    honest node identically derives:

    - disputes between pairs whose sent/received claims mismatch (DC2);
    - nodes whose claimed sends are inconsistent with a deterministic replay
      of the protocol on their claimed receptions and the agreed input and
      flags (DC3) — these are provably faulty and disputed with all their
      neighbours;
    - hence the next graph G_(k+1) via {!Params.apply_disputes} (DC4),
      applied by the driver. *)

open Nab_graph
open Nab_net
open Nab_classic

type ctx = {
  gk : Digraph.t;
  total_n : int;
  f : int;
  source : int;
  trees : Arborescence.tree list;
  coding : Coding.t;
  value_bits : int;  (** padded instance length L' *)
  flags : (int * bool) list;  (** step-2.2 agreed MISMATCH flags *)
}

type verdict = {
  output : Bitvec.t;  (** the agreed output of the instance *)
  new_disputes : Params.dispute list;  (** sorted, deduplicated *)
  provably_faulty : Vset.t;  (** nodes caught by DC3 *)
}

val honest_claims : Transport.t -> net_phases:string list -> me:int -> Wire.claim list
(** A node's true transcript for the given simulator phases, as claims. *)

type claims_adversary = me:int -> Wire.claim list -> Wire.claim list
(** Rewrites the claim list a faulty node broadcasts. *)

val honest_claims_adv : claims_adversary

val run :
  net:Transport.t ->
  routing:Routing.t ->
  ctx:ctx ->
  faulty:Vset.t ->
  true_input:Bitvec.t ->
  ?claims_adv:claims_adversary ->
  ?claims_of:(int -> Wire.claim list) ->
  ?input_adv:(Bitvec.t -> Bitvec.t) ->
  ?eig_adv:Eig.adversary ->
  unit ->
  (int * verdict) list
(** Execute dispute control for the current instance; returns each node's
    verdict (honest nodes' verdicts are always identical — asserted in
    tests). A verdict depends only on the vantage's agreed view, so each
    distinct view is analysed once and vantages with equal views share
    one verdict record. [input_adv] lets a faulty source lie about its
    input. The claim transcripts of honest nodes are read from the
    simulator's event trace for phases ["phase1"] and ["equality-check"]
    — unless [claims_of] supplies them directly (a node's true transcript), which callers
    multiplexing several instances over one shared transport use, since
    the shared event trace interleaves instances. [claims_adv] still
    rewrites faulty nodes' claims on top of either source. *)

val analyse :
  ctx:ctx ->
  claims:(int -> Wire.claim list) ->
  agreed_input:Bitvec.t ->
  verdict
(** The deterministic DC2-DC3 analysis given agreed claims — the pure core
    of {!run}, exposed for unit tests. [claims] is called once per vertex
    of G_k; the first claim of each (proto, src, dst, dir) key is the one
    that counts. *)
