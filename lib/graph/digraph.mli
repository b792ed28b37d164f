(** Immutable directed simple graphs with positive integer edge capacities,
    the paper's network model G(V, E) with capacities z_e. Vertices are
    arbitrary ints (the paper numbers nodes 1..n). *)

type t

val empty : t
val add_vertex : t -> int -> t

val add_edge : t -> src:int -> dst:int -> cap:int -> t
(** Adds (or replaces) a directed edge. Endpoints are added implicitly.
    Raises [Invalid_argument] if [cap <= 0] or [src = dst]. *)

val of_edges : ?vertices:int list -> (int * int * int) list -> t
(** [(src, dst, cap)] triples; [vertices] adds isolated vertices. *)

val mem_vertex : t -> int -> bool
val mem_edge : t -> int -> int -> bool

val cap : t -> int -> int -> int
(** Capacity of the edge, or 0 if absent. *)

val vertices : t -> int list
(** Sorted. *)

val vertex_set : t -> Vset.t
val num_vertices : t -> int
val num_edges : t -> int

val edges : t -> (int * int * int) list
(** All [(src, dst, cap)] triples, sorted by (src, dst). *)

val total_capacity : t -> int

val out_edges : t -> int -> (int * int) list
(** [(dst, cap)] pairs, sorted by destination. *)

val in_edges : t -> int -> (int * int) list
(** [(src, cap)] pairs, sorted by source. *)

val out_degree : t -> int -> int

val neighbors : t -> int -> int list
(** Vertices adjacent by an edge in either direction, sorted. *)

val remove_edge : t -> int -> int -> t
(** No-op when the edge is absent. *)

val remove_pair : t -> int -> int -> t
(** Removes edges in both directions between the two vertices — what dispute
    control does to a disputing pair. *)

val remove_vertex : t -> int -> t
(** Removes the vertex and all incident edges; no-op when absent. *)

val induced : t -> Vset.t -> t
(** Subgraph induced by the given vertices. *)

val equal : t -> t -> bool

val fingerprint : t -> string
(** A canonical content key: two graphs have the same fingerprint iff they
    are {!equal}. Used (together with the other inputs of a computation) to
    key plan caches ({!Nab_util.Plan_cache}), so structurally-equal graphs
    built through different histories share cached plans. *)

val fold_edges : (int -> int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over (src, dst, cap). *)

val is_strongly_connected : t -> bool
