(** Spanning trees of undirected graphs (Figure 2(d) picks an undirected
    spanning tree of the example network). *)

type tree = (int * int) list
(** Undirected spanning tree as an edge list with [u < v] per edge. *)

val bfs_tree : Ugraph.t -> root:int -> tree
(** A BFS spanning tree. Raises [Invalid_argument] when the graph is
    disconnected or the root is absent. *)

val is_spanning_tree : Ugraph.t -> tree -> bool
(** The edge list is acyclic, spans all vertices, and uses existing edges. *)
