type tree = (int * int) list

let norm u v = if u < v then (u, v) else (v, u)

let bfs_tree g ~root =
  if not (Ugraph.mem_vertex g root) then invalid_arg "Spanning.bfs_tree: root absent";
  let seen = ref (Vset.singleton root) in
  let tree = ref [] in
  let q = Queue.create () in
  Queue.add root q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (w, _) ->
        if not (Vset.mem w !seen) then begin
          seen := Vset.add w !seen;
          tree := norm v w :: !tree;
          Queue.add w q
        end)
      (Ugraph.neighbors g v)
  done;
  if not (Vset.equal !seen (Ugraph.vertex_set g)) then
    invalid_arg "Spanning.bfs_tree: graph is disconnected";
  List.rev !tree

let is_spanning_tree g t =
  let vs = Ugraph.vertex_set g in
  let n = Vset.cardinal vs in
  List.length t = n - 1
  && List.for_all (fun (u, v) -> Ugraph.mem_edge g u v) t
  &&
  (* Acyclic + spanning via union-find over the vertex list. *)
  let parent = Hashtbl.create n in
  Vset.iter (fun v -> Hashtbl.replace parent v v) vs;
  let rec find v =
    let p = Hashtbl.find parent v in
    if p = v then v
    else begin
      let r = find p in
      Hashtbl.replace parent v r;
      r
    end
  in
  let acyclic =
    List.for_all
      (fun (u, v) ->
        Vset.mem u vs && Vset.mem v vs
        &&
        let ru = find u and rv = find v in
        if ru = rv then false
        else begin
          Hashtbl.replace parent ru rv;
          true
        end)
      t
  in
  acyclic && n > 0
  &&
  let r0 = find (Vset.choose vs) in
  Vset.for_all (fun v -> find v = r0) vs
