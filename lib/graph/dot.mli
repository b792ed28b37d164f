(** Graphviz DOT export, for documentation and debugging. *)

val of_digraph : ?name:string -> ?highlight:(int * int) list -> Digraph.t -> string
(** DOT source; edges in [highlight] are drawn bold red (used to render
    spanning trees inside a network, as in Figure 2(c)). *)
