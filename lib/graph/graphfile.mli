(** Plain-text network files, so the CLI and experiments can run on
    user-supplied topologies.

    Format (line-oriented, '#' comments, blank lines ignored):
    {v
    # a 4-node example
    node 4
    edge 1 2 3      # directed edge 1 -> 2 with capacity 3
    biedge 1 3 2    # edges 1 -> 3 and 3 -> 1, both capacity 2
    v}
    [node] lines are optional (edges imply their endpoints); they add
    isolated vertices or just assert existence. *)

val parse_file : string -> (Digraph.t, string) result
(** Parse a file; the error carries a 1-based line number. *)

val write_file : string -> Digraph.t -> unit
(** Canonical form: sorted [node]/[edge] lines; [parse_file] of the
    written file equals the graph. *)
