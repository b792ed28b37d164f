type tree = (int * int) list

let children t v = List.filter_map (fun (p, c) -> if p = v then Some c else None) t
let parent t v = List.find_map (fun (p, c) -> if c = v then Some p else None) t

let rec depth_of t ~root v =
  if v = root then 0
  else
    match parent t v with
    | None -> invalid_arg "Arborescence.depth: vertex not in tree"
    | Some p -> 1 + depth_of t ~root p

let vertices_by_depth t ~root =
  let vs = root :: List.map snd t in
  List.map (fun v -> (v, depth_of t ~root v)) vs
  |> List.sort (fun (v1, d1) (v2, d2) -> compare (d1, v1) (d2, v2))

let depth t ~root =
  List.fold_left (fun acc (_, d) -> max acc d) 0 (vertices_by_depth t ~root)

let decrement_cap g u v =
  let c = Digraph.cap g u v in
  assert (c > 0);
  let g = Digraph.remove_edge g u v in
  if c = 1 then g else Digraph.add_edge g ~src:u ~dst:v ~cap:(c - 1)

(* Grow one spanning arborescence in [g] such that after removing its arcs
   the graph still has root-connectivity >= [remaining]. Lovász's lemma
   guarantees a valid frontier arc always exists when the current graph has
   root-connectivity >= remaining + 1. *)
let grow_tree g ~root ~remaining =
  let all = Digraph.vertex_set g in
  let rec go g covered tree =
    if Vset.equal covered all then (g, List.rev tree)
    else begin
      let candidates =
        Vset.fold
          (fun u acc ->
            List.fold_left
              (fun acc (v, _) -> if Vset.mem v covered then acc else (u, v) :: acc)
              acc (Digraph.out_edges g u))
          covered []
      in
      let rec try_candidates = function
        | [] ->
            (* Impossible when the precondition holds; fail loudly. *)
            invalid_arg "Arborescence.pack: no valid frontier arc (connectivity too low)"
        | (u, v) :: rest ->
            let g' = decrement_cap g u v in
            if Maxflow.broadcast_at_least g' ~src:root ~need:remaining then (g', u, v)
            else try_candidates rest
      in
      let g', u, v = try_candidates (List.rev candidates) in
      go g' (Vset.add v covered) ((u, v) :: tree)
    end
  in
  go g (Vset.singleton root) []

let pack g ~root ~k =
  if k < 0 then invalid_arg "Arborescence.pack: negative k";
  if not (Digraph.mem_vertex g root) then invalid_arg "Arborescence.pack: root not in graph";
  if not (Maxflow.broadcast_at_least g ~src:root ~need:k) then
    invalid_arg "Arborescence.pack: k exceeds the root broadcast min-cut";
  let rec go g remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      let g', tree = grow_tree g ~root ~remaining:(remaining - 1) in
      go g' (remaining - 1) (tree :: acc)
    end
  in
  go g k []

let verify g ~root trees =
  let ( let* ) = Result.bind in
  let check_tree i t =
    let vs = Digraph.vertex_set g in
    let covered = List.fold_left (fun acc (_, c) -> Vset.add c acc) (Vset.singleton root) t in
    if not (Vset.equal covered vs) then
      Error (Printf.sprintf "tree %d does not span all vertices" i)
    else if List.length t <> Vset.cardinal vs - 1 then
      Error (Printf.sprintf "tree %d has wrong arc count" i)
    else if
      List.exists (fun (_, c) -> c = root) t
      || List.length (List.sort_uniq compare (List.map snd t)) <> List.length t
    then Error (Printf.sprintf "tree %d has a vertex with two parents" i)
    else begin
      (* Connectivity: every vertex reaches the root through parents. *)
      let ok =
        Vset.for_all
          (fun v ->
            let rec climb v seen =
              if v = root then true
              else if List.mem v seen then false
              else match parent t v with None -> false | Some p -> climb p (v :: seen)
            in
            climb v [])
          vs
      in
      if ok then Ok () else Error (Printf.sprintf "tree %d contains a cycle" i)
    end
  in
  let rec check_all i = function
    | [] -> Ok ()
    | t :: rest ->
        let* () = check_tree i t in
        check_all (i + 1) rest
  in
  let* () = check_all 0 trees in
  (* Capacity usage. *)
  let usage = Hashtbl.create 16 in
  List.iter
    (List.iter (fun arc ->
         Hashtbl.replace usage arc (1 + try Hashtbl.find usage arc with Not_found -> 0)))
    trees;
  Hashtbl.fold
    (fun (u, v) used acc ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          if Digraph.cap g u v >= used then Ok ()
          else
            Error
              (Printf.sprintf "edge (%d,%d) used %d times but has capacity %d" u v used
                 (Digraph.cap g u v)))
    usage (Ok ())

let pp fmt t =
  Format.fprintf fmt "@[{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ")
       (fun fmt (p, c) -> Format.fprintf fmt "%d->%d" p c))
    t
