module Imap = Map.Make (Int)

type t = {
  verts : Vset.t;
  succ : int Imap.t Imap.t; (* src -> dst -> cap *)
  pred : int Imap.t Imap.t; (* dst -> src -> cap *)
}

let empty = { verts = Vset.empty; succ = Imap.empty; pred = Imap.empty }
let add_vertex g v = { g with verts = Vset.add v g.verts }

let adj_add m a b cap =
  Imap.update a
    (function
      | None -> Some (Imap.singleton b cap)
      | Some inner -> Some (Imap.add b cap inner))
    m

let adj_remove m a b =
  Imap.update a
    (function
      | None -> None
      | Some inner ->
          let inner = Imap.remove b inner in
          if Imap.is_empty inner then None else Some inner)
    m

let adj_find m a b =
  match Imap.find_opt a m with
  | None -> 0
  | Some inner -> ( match Imap.find_opt b inner with None -> 0 | Some c -> c)

let add_edge g ~src ~dst ~cap =
  if cap <= 0 then invalid_arg "Digraph.add_edge: capacity must be positive";
  if src = dst then invalid_arg "Digraph.add_edge: self-loop";
  {
    verts = Vset.add src (Vset.add dst g.verts);
    succ = adj_add g.succ src dst cap;
    pred = adj_add g.pred dst src cap;
  }

let of_edges ?(vertices = []) es =
  let g = List.fold_left add_vertex empty vertices in
  List.fold_left (fun g (src, dst, cap) -> add_edge g ~src ~dst ~cap) g es

let mem_vertex g v = Vset.mem v g.verts
let mem_edge g a b = adj_find g.succ a b > 0
let cap g a b = adj_find g.succ a b
let vertices g = Vset.elements g.verts
let vertex_set g = g.verts
let num_vertices g = Vset.cardinal g.verts

let fold_edges f g acc =
  Imap.fold
    (fun src inner acc -> Imap.fold (fun dst cap acc -> f src dst cap acc) inner acc)
    g.succ acc

let num_edges g = fold_edges (fun _ _ _ n -> n + 1) g 0

let edges g =
  fold_edges (fun s d c acc -> (s, d, c) :: acc) g []
  |> List.sort (fun (a, b, _) (c, d, _) -> compare (a, b) (c, d))

let total_capacity g = fold_edges (fun _ _ c acc -> acc + c) g 0

let adjacency m v =
  match Imap.find_opt v m with None -> [] | Some inner -> Imap.bindings inner

let out_edges g v = adjacency g.succ v
let in_edges g v = adjacency g.pred v
let out_degree g v = List.length (out_edges g v)
let neighbors g v =
  let outs = List.map fst (out_edges g v) in
  let ins = List.map fst (in_edges g v) in
  List.sort_uniq compare (outs @ ins)

let remove_edge g a b =
  { g with succ = adj_remove g.succ a b; pred = adj_remove g.pred b a }

let remove_pair g a b = remove_edge (remove_edge g a b) b a

let remove_vertex g v =
  if not (mem_vertex g v) then g
  else begin
    let g =
      List.fold_left (fun g (dst, _) -> remove_edge g v dst) g (out_edges g v)
    in
    let g =
      List.fold_left (fun g (src, _) -> remove_edge g src v) g (in_edges g v)
    in
    { g with verts = Vset.remove v g.verts }
  end

let induced g keep =
  let g' =
    Vset.fold (fun v acc -> if Vset.mem v keep then add_vertex acc v else acc) g.verts empty
  in
  fold_edges
    (fun src dst cap acc ->
      if Vset.mem src keep && Vset.mem dst keep then add_edge acc ~src ~dst ~cap
      else acc)
    g g'

let equal a b =
  Vset.equal a.verts b.verts
  && Imap.equal (Imap.equal Int.equal) a.succ b.succ

let reachable g start =
  if not (mem_vertex g start) then Vset.empty
  else begin
    let rec bfs frontier seen =
      if Vset.is_empty frontier then seen
      else begin
        let next =
          Vset.fold
            (fun v acc ->
              List.fold_left
                (fun acc (w, _) -> if Vset.mem w seen then acc else Vset.add w acc)
                acc (out_edges g v))
            frontier Vset.empty
        in
        bfs next (Vset.union seen next)
      end
    in
    bfs (Vset.singleton start) (Vset.singleton start)
  end

let is_strongly_connected g =
  match Vset.choose_opt g.verts with
  | None -> true
  | Some v0 ->
      Vset.equal (reachable g v0) g.verts
      && Vset.for_all (fun v -> Vset.mem v0 (reachable g v)) g.verts

let fingerprint g =
  (* Canonical: sorted vertex list, then edges in (src, dst) order with
     capacities — the same shape [equal] compares, rendered compactly. Two
     graphs share a fingerprint iff they are [equal]. *)
  let buf = Buffer.create 256 in
  Buffer.add_char buf 'v';
  Vset.iter
    (fun v ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int v))
    g.verts;
  Buffer.add_string buf ";e";
  Imap.iter
    (fun src inner ->
      Imap.iter
        (fun dst cap ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int src);
          Buffer.add_char buf '>';
          Buffer.add_string buf (string_of_int dst);
          Buffer.add_char buf '*';
          Buffer.add_string buf (string_of_int cap))
        inner)
    g.succ;
  Buffer.contents buf
