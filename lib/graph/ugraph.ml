(* Implemented as a symmetric digraph whose two directions always carry the
   same capacity; the wrapper enforces the symmetry invariant. *)

type t = Digraph.t

let empty = Digraph.empty
let add_vertex = Digraph.add_vertex

let norm u v = if u < v then (u, v) else (v, u)

let add_edge g u v cap =
  if u = v then invalid_arg "Ugraph.add_edge: self-loop";
  let g = Digraph.add_edge g ~src:u ~dst:v ~cap in
  Digraph.add_edge g ~src:v ~dst:u ~cap

let of_edges ?(vertices = []) es =
  let g = List.fold_left add_vertex empty vertices in
  List.fold_left (fun g (u, v, c) -> add_edge g u v c) g es

let of_digraph d =
  let pairs =
    Digraph.fold_edges
      (fun s t _ acc ->
        let key = norm s t in
        if List.mem key acc then acc else key :: acc)
      d []
  in
  let g = List.fold_left add_vertex empty (Digraph.vertices d) in
  List.fold_left
    (fun g (u, v) -> add_edge g u v (Digraph.cap d u v + Digraph.cap d v u))
    g pairs

let mem_vertex = Digraph.mem_vertex
let mem_edge = Digraph.mem_edge
let vertices = Digraph.vertices
let vertex_set = Digraph.vertex_set
let num_vertices = Digraph.num_vertices

let edges g =
  List.filter (fun (u, v, _) -> u < v) (Digraph.edges g)

let num_edges g = List.length (edges g)
let neighbors g v = Digraph.out_edges g v

let fold_edges f g acc =
  List.fold_left (fun acc (u, v, c) -> f u v c acc) acc (edges g)
