(** Maximum flow / minimum cut on capacitated digraphs (Dinic's algorithm).
    MINCUT(G, i, j) in the paper is exactly [max_flow g ~src:i ~dst:j] by the
    max-flow min-cut theorem. *)

val max_flow : Digraph.t -> src:int -> dst:int -> int
(** Value of a maximum [src] -> [dst] flow; 0 when [dst] is unreachable.
    Raises [Invalid_argument] if either endpoint is missing or equal. *)

val max_flow_edges : Digraph.t -> src:int -> dst:int -> int * ((int * int) * int) list
(** Flow value together with the positive per-edge flow assignment. *)

val min_cut : Digraph.t -> src:int -> dst:int -> int * Vset.t
(** Cut value and the source side of a minimum cut (vertices reachable from
    [src] in the final residual graph). *)

val min_cut_edges : Digraph.t -> src:int -> dst:int -> int * (int * int) list
(** Cut value and the saturated edges crossing the minimum cut. *)

val broadcast_mincut : Digraph.t -> src:int -> int
(** The paper's gamma_k: min over all other vertices j of MINCUT(G, src, j).
    0 when some vertex is unreachable; equal to [max_int] only in the
    degenerate single-vertex graph. *)

val broadcast_at_least : Digraph.t -> src:int -> need:int -> bool
(** [broadcast_mincut g ~src >= need], decided on one residual network:
    each per-vertex flow stops once it reaches [need], and the scan stops at
    the first vertex below it. Always [true] for [need <= 0]. *)

val flow_decompose : Digraph.t -> ((int * int) * int) list -> src:int -> dst:int -> int list list
(** Decompose an [src]->[dst] flow (as per-edge positive amounts) into unit
    paths: returns [value] many vertex paths from [src] to [dst]. The flow
    must be a valid integral flow; cycles in the flow are discarded. *)
