(* Dinic's algorithm on an indexed residual edge list. *)

type network = {
  n : int;
  index_of : (int, int) Hashtbl.t;
  vertex_of : int array;
  (* residual edges; edge 2k and 2k+1 are a forward/backward pair *)
  eto : int array;
  ecap : int array;
  adj : int list array; (* edge ids out of each vertex index *)
}

let build g =
  let verts = Array.of_list (Digraph.vertices g) in
  let n = Array.length verts in
  let index_of = Hashtbl.create n in
  Array.iteri (fun i v -> Hashtbl.add index_of v i) verts;
  let edges = Digraph.edges g in
  let m = List.length edges in
  let eto = Array.make (2 * m) 0 in
  let ecap = Array.make (2 * m) 0 in
  let adj = Array.make n [] in
  List.iteri
    (fun k (s, d, c) ->
      let si = Hashtbl.find index_of s and di = Hashtbl.find index_of d in
      eto.(2 * k) <- di;
      ecap.(2 * k) <- c;
      eto.((2 * k) + 1) <- si;
      ecap.((2 * k) + 1) <- 0;
      adj.(si) <- (2 * k) :: adj.(si);
      adj.(di) <- ((2 * k) + 1) :: adj.(di))
    edges;
  ({ n; index_of; vertex_of = verts; eto; ecap; adj }, edges)

(* Augment until no s-t path is left or the flow reaches [limit]. *)
let dinic ?(limit = max_int) nw s t =
  let level = Array.make nw.n (-1) in
  let iter = Array.make nw.n [] in
  let bfs () =
    Array.fill level 0 nw.n (-1);
    level.(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun e ->
          let w = nw.eto.(e) in
          if nw.ecap.(e) > 0 && level.(w) < 0 then begin
            level.(w) <- level.(v) + 1;
            Queue.add w q
          end)
        nw.adj.(v)
    done;
    level.(t) >= 0
  in
  let rec dfs v f =
    if v = t then f
    else begin
      let rec try_edges () =
        match iter.(v) with
        | [] -> 0
        | e :: rest ->
            let w = nw.eto.(e) in
            if nw.ecap.(e) > 0 && level.(w) = level.(v) + 1 then begin
              let d = dfs w (min f nw.ecap.(e)) in
              if d > 0 then begin
                nw.ecap.(e) <- nw.ecap.(e) - d;
                nw.ecap.(e lxor 1) <- nw.ecap.(e lxor 1) + d;
                d
              end
              else begin
                iter.(v) <- rest;
                try_edges ()
              end
            end
            else begin
              iter.(v) <- rest;
              try_edges ()
            end
      in
      try_edges ()
    end
  in
  let flow = ref 0 in
  while !flow < limit && bfs () do
    Array.blit nw.adj 0 iter 0 nw.n;
    let rec push () =
      let f = dfs s (limit - !flow) in
      if f > 0 then begin
        flow := !flow + f;
        if !flow < limit then push ()
      end
    in
    push ()
  done;
  !flow

let check_endpoints g ~src ~dst =
  if src = dst then invalid_arg "Maxflow: src = dst";
  if not (Digraph.mem_vertex g src) then invalid_arg "Maxflow: src not in graph";
  if not (Digraph.mem_vertex g dst) then invalid_arg "Maxflow: dst not in graph"

let run g ~src ~dst =
  check_endpoints g ~src ~dst;
  let nw, edges = build g in
  let s = Hashtbl.find nw.index_of src and t = Hashtbl.find nw.index_of dst in
  let v = dinic nw s t in
  (v, nw, edges)

let max_flow g ~src ~dst =
  let v, _, _ = run g ~src ~dst in
  v

let max_flow_edges g ~src ~dst =
  let v, nw, edges = run g ~src ~dst in
  let flows =
    List.mapi
      (fun k (s, d, c) ->
        let used = c - nw.ecap.(2 * k) in
        ((s, d), used))
      edges
    |> List.filter (fun (_, f) -> f > 0)
  in
  (v, flows)

let residual_source_side nw s =
  let seen = Array.make nw.n false in
  seen.(s) <- true;
  let q = Queue.create () in
  Queue.add s q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun e ->
        let w = nw.eto.(e) in
        if nw.ecap.(e) > 0 && not seen.(w) then begin
          seen.(w) <- true;
          Queue.add w q
        end)
      nw.adj.(v)
  done;
  seen

let min_cut g ~src ~dst =
  let v, nw, _ = run g ~src ~dst in
  let seen = residual_source_side nw (Hashtbl.find nw.index_of src) in
  let side = ref Vset.empty in
  Array.iteri (fun i b -> if b then side := Vset.add nw.vertex_of.(i) !side) seen;
  (v, !side)

let min_cut_edges g ~src ~dst =
  let v, side = min_cut g ~src ~dst in
  let cut =
    Digraph.fold_edges
      (fun s d _ acc ->
        if Vset.mem s side && not (Vset.mem d side) then (s, d) :: acc else acc)
      g []
  in
  (v, List.sort compare cut)

(* One residual network for every target: [src] -> v flows, capped at
   [limit], for each other vertex v in [Digraph.vertices] order, with the
   capacities restored between targets. Stops at the first flow [keep_going]
   rejects and returns whether every flow was accepted. *)
let for_all_targets g ~src ~limit keep_going =
  let nw, _ = build g in
  let cap0 = Array.copy nw.ecap in
  let s = Hashtbl.find nw.index_of src in
  let rec go t =
    if t >= nw.n then true
    else if t = s then go (t + 1)
    else begin
      Array.blit cap0 0 nw.ecap 0 (Array.length cap0);
      keep_going (dinic ~limit nw s t) && go (t + 1)
    end
  in
  go 0

let broadcast_mincut g ~src =
  if not (Digraph.mem_vertex g src) then invalid_arg "Maxflow.broadcast_mincut";
  let best = ref max_int in
  ignore
    (for_all_targets g ~src ~limit:max_int (fun v ->
         best := min !best v;
         true));
  !best

let broadcast_at_least g ~src ~need =
  if not (Digraph.mem_vertex g src) then invalid_arg "Maxflow.broadcast_at_least";
  need <= 0 || for_all_targets g ~src ~limit:need (fun v -> v >= need)

let flow_decompose _g flows ~src ~dst =
  (* Mutable leftover flow per edge. First cancel every directed cycle in the
     positive-flow subgraph, then greedily trace src->dst paths: in an acyclic
     flow, conservation guarantees every trace from src terminates at dst. *)
  let tbl = Hashtbl.create 16 in
  List.iter (fun ((s, d), f) -> if f > 0 then Hashtbl.replace tbl (s, d) f) flows;
  let out_of v =
    Hashtbl.fold (fun (s, d) f acc -> if s = v && f > 0 then d :: acc else acc) tbl []
  in
  let dec a b k =
    let f = Hashtbl.find tbl (a, b) in
    if f = k then Hashtbl.remove tbl (a, b) else Hashtbl.replace tbl (a, b) (f - k)
  in
  let cancel_cycle path_rev w =
    (* path_rev is the reversed walk ending at some v with edge (v, w), and w
       occurs in the walk: cancel the cycle w ... v -> w by its min flow. *)
    let rec cycle_of acc = function
      | [] -> assert false
      | x :: rest -> if x = w then x :: acc else cycle_of (x :: acc) rest
    in
    let cycle = cycle_of [ w ] path_rev (* w, ..., v, w *) in
    let rec min_flow = function
      | a :: (b :: _ as rest) -> min (Hashtbl.find tbl (a, b)) (min_flow rest)
      | _ -> max_int
    in
    let k = min_flow cycle in
    let rec go = function
      | a :: (b :: _ as rest) ->
          dec a b k;
          go rest
      | _ -> ()
    in
    go cycle
  in
  let rec cancel_all_cycles () =
    (* DFS over the positive-flow subgraph from every vertex with outflow. *)
    let found = ref false in
    let starts = Hashtbl.fold (fun (s, _) _ acc -> s :: acc) tbl [] in
    let rec walk v path_rev =
      if !found then ()
      else
        List.iter
          (fun w ->
            if !found then ()
            else if List.mem w (v :: path_rev) then begin
              cancel_cycle (v :: path_rev) w;
              found := true
            end
            else walk w (v :: path_rev))
          (out_of v)
    in
    List.iter (fun s -> if not !found then walk s []) (List.sort_uniq compare starts);
    if !found then cancel_all_cycles ()
  in
  cancel_all_cycles ();
  let rec trace v path =
    if v = dst then List.rev (v :: path)
    else
      match out_of v with
      | [] -> invalid_arg "Maxflow.flow_decompose: not a valid flow"
      | w :: _ -> trace w (v :: path)
  in
  let decrement path =
    let rec go = function
      | a :: (b :: _ as rest) ->
          dec a b 1;
          go rest
      | _ -> ()
    in
    go path
  in
  let rec collect acc =
    if out_of src = [] then List.rev acc
    else begin
      let path = trace src [] in
      decrement path;
      collect (path :: acc)
    end
  in
  collect []
