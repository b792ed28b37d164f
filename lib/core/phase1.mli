(** Phase 1 — Unreliable Broadcast (Section 2, Appendix A). The source's
    L-bit input is split into gamma_k slices of L/gamma_k bits; slice t
    travels down the t-th unit-capacity spanning arborescence, one hop per
    simulator round. No fault detection here: a faulty node on a tree
    corrupts everything downstream of it on that tree. *)

open Nab_graph
open Nab_net

val proto : string

type adversary = me:int -> tree:int -> dst:int -> Wire.payload -> Wire.payload option
(** Transform (or drop, with [None]) the slice a faulty node forwards to a
    child on a tree. The honest behaviour wraps the slice unchanged. *)

val honest : adversary

type schedule = private {
  trees : Arborescence.tree array;
  depth_of : (int * int) list array;  (** per tree: (vertex, depth) *)
  sizes : int array;  (** per tree: slice width in bits *)
  max_depth : int;  (** rounds Phase 1 takes *)
}
(** The value-independent shape of one Phase-1 execution, computed once
    per instance. *)

val schedule : trees:Arborescence.tree list -> source:int -> value_bits:int -> schedule

val step :
  schedule ->
  faulty:Vset.t ->
  adversary:adversary ->
  round:int ->
  me:int ->
  received:(int -> Wire.payload option) ->
  emit:(int -> int -> Wire.payload -> unit) ->
  unit
(** The forward rule: [emit tree dst payload] for each send of node [me]
    in [round] (1-based), given what [me] holds per tree ([received t]).
    Trees are walked in order, children in tree order; a faulty [me]'s
    sends pass through [adversary] (dropped on [None]). Both {!run} and
    the streaming driver's transcript call it, so the adversary hook sees
    the same calls in the same order under either driver. *)

val run :
  net:Transport.t ->
  phase:string ->
  trees:Arborescence.tree list ->
  source:int ->
  value:Bitvec.t ->
  faulty:Vset.t ->
  ?adversary:adversary ->
  unit ->
  int -> Wire.payload option array
(** Broadcast [value] from [source], one balanced slice per tree (slice t
    has [Bitvec.balanced_sizes] bits, so gamma need not divide L). Returns a
    function from node to the payload received per tree ([None] = nothing
    arrived). The source's own entries are its true slices. *)

val slice_sizes : value_bits:int -> trees:int -> int array
(** The per-tree slice widths used by {!run}. *)

val assemble : slice_sizes:int array -> Wire.payload option array -> Bitvec.t
(** Reassemble a node's received per-tree payloads into its L-bit value x_i,
    substituting the all-zero default for missing or malformed slices (the
    paper's missing-message rule). *)

val slice_payload : Bitvec.t -> Wire.payload
(** Encode one slice for the wire. Exposed for dispute control. *)

val payload_slice : slice_bits:int -> Wire.payload option -> Bitvec.t
(** Decode a received slice; missing or malformed input yields the all-zero
    default of the expected width. *)

val expected_forward : slice_bits:int -> received:Wire.payload option -> Wire.payload
(** What an honest node must forward on a tree given what it received —
    shared with DC3: missing input is forwarded as the explicit default
    value so the mismatch propagates. *)

val tree_proto : int -> string
(** The wire protocol label of tree [t]. *)
