(** Undirected capacitated graphs — the paper's \bar{H} construction: the
    undirected version of a digraph has edge {i,j} whenever either directed
    edge exists, with capacity the sum of the two directions. *)

type t

val empty : t
val add_vertex : t -> int -> t

val add_edge : t -> int -> int -> int -> t
(** [add_edge g u v cap]: adds {u,v} with the given capacity (replacing any
    previous one). Raises [Invalid_argument] on non-positive capacity or
    self-loop. *)

val of_edges : ?vertices:int list -> (int * int * int) list -> t

val of_digraph : Digraph.t -> t
(** The paper's undirected version: cap {i,j} = cap (i,j) + cap (j,i). *)

val mem_vertex : t -> int -> bool
val mem_edge : t -> int -> int -> bool
val cap : t -> int -> int -> int
val vertices : t -> int list
val vertex_set : t -> Vset.t
val num_vertices : t -> int
val num_edges : t -> int

val edges : t -> (int * int * int) list
(** [(u, v, cap)] with [u < v], sorted. *)

val neighbors : t -> int -> (int * int) list
(** [(neighbor, cap)] pairs, sorted. *)

val degree : t -> int -> int
val remove_vertex : t -> int -> t
val induced : t -> Vset.t -> t
val equal : t -> t -> bool
val fold_edges : (int -> int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val pp : Format.formatter -> t -> unit
