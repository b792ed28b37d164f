(** Static routing tables over node-disjoint paths. In a network with
    connectivity >= 2f+1 and at most f faults, sending the same message over
    2f+1 internally node-disjoint paths and majority-voting at the receiver
    emulates a reliable link between any two nodes — the standard Dolev
    construction the paper invokes to run Broadcast_Default on incomplete
    graphs. Routing is deterministic (a pure function of the graph), so it is
    common knowledge among honest nodes. *)

open Nab_graph

type t

val build : Digraph.t -> f:int -> t
(** Routes between every ordered pair of distinct vertices: the direct edge
    when one exists (a point-to-point link cannot be tampered with by third
    parties), otherwise 2f+1 node-disjoint paths. Raises [Invalid_argument]
    when some pair has neither an edge nor 2f+1 disjoint paths (connectivity
    too low for the fault budget). *)

val paths : t -> src:int -> dst:int -> int list list
(** The path set for a pair; each path is [src; ...; dst]. *)

val max_path_len : t -> int
(** Longest route length in edges; bounds the rounds one exchange takes. *)

val is_route : t -> src:int -> dst:int -> int list -> bool
(** Whether the given route is one of the table's routes for the pair —
    receivers use this to reject forged routes. *)
