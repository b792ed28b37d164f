(** Global minimum cut of a connected undirected capacitated graph
    (Stoer–Wagner). The paper's U_H = min over all vertex pairs i, j of
    MINCUT(\bar{H}, i, j) is exactly this global min cut. *)

val min_cut : Ugraph.t -> int * Vset.t
(** Cut value and one side of a minimum cut. For a disconnected graph the
    value is 0. Raises [Invalid_argument] on graphs with fewer than two
    vertices (no cut exists). *)

val min_cut_value : Ugraph.t -> int
