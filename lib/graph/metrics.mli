(** Descriptive statistics of a network — what an operator looks at before
    asking the capacity questions (`examples/capacity_planning.ml`, CLI
    [stats] subcommand). *)

type t = {
  nodes : int;
  edges : int;  (** directed edge count *)
  total_capacity : int;
  min_cap : int;
  max_cap : int;
  min_out_degree : int;
  max_out_degree : int;
  diameter : int;  (** longest shortest directed path in hops; -1 if not strongly connected *)
  vertex_connectivity : int;
  max_f : int;  (** largest f with n >= 3f+1 and connectivity >= 2f+1 *)
}

val compute : Digraph.t -> t
(** Raises [Invalid_argument] on graphs with fewer than 2 vertices. *)

val pp : Format.formatter -> t -> unit
