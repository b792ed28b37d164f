(** Packing of arc-disjoint spanning arborescences (out-trees) rooted at a
    given vertex, respecting edge capacities — Edmonds' branching theorem
    [16]: a capacitated digraph admits k capacity-disjoint spanning
    arborescences rooted at r iff MINCUT(G, r, v) >= k for every v. Phase 1
    of NAB sends one L/gamma-bit symbol down each of the gamma trees. *)

type tree = (int * int) list
(** A spanning arborescence as its arc list [(parent, child)]; every vertex
    except the root appears exactly once as a child. *)

val pack : Digraph.t -> root:int -> k:int -> tree list
(** [pack g ~root ~k] returns [k] spanning arborescences such that each edge
    e is used by at most [cap e] trees in total (counting multiplicity).
    Raises [Invalid_argument] when [k] exceeds the root's broadcast min-cut
    (in which case no packing exists), or [k < 0]. Uses the constructive
    Lovász argument: grow each tree arc by arc, keeping the residual
    root-connectivity at least the number of trees still to build. *)

val verify : Digraph.t -> root:int -> tree list -> (unit, string) result
(** Check the packing: every tree spans all vertices of [g] from [root], and
    the multiset of used arcs respects capacities. *)

val children : tree -> int -> int list
val parent : tree -> int -> int option
val vertices_by_depth : tree -> root:int -> (int * int) list
(** [(vertex, depth)] pairs sorted by depth then vertex; the root has
    depth 0. Drives the hop-by-hop Phase-1 forwarding schedule. *)
