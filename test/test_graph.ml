(* Tests for the graph substrate: Digraph, Ugraph, Maxflow, Stoer_wagner,
   Connectivity, Arborescence, Spanning, Gen. Two independent algorithms
   live here as test-local oracles: Edmonds-Karp cross-checks Maxflow
   (Dinic), and Karger's contraction cross-checks Stoer_wagner. *)

open Nab_graph

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Random small symmetric digraph generator for property tests. *)
let graph_gen =
  QCheck2.Gen.(
    pair (int_range 3 7) (int_range 0 10_000) >>= fun (n, seed) ->
    return (Gen.random_connected ~n ~p:0.7 ~min_cap:1 ~max_cap:4 ~seed))

(* ---------- test-local oracles ---------- *)

(* The undirected s-t min cut, via the symmetric digraph whose two
   directions each carry the undirected capacity. *)
let pair_mincut_undirected u a b =
  let arcs = Ugraph.fold_edges (fun x y c acc -> (x, y, c) :: (y, x, c) :: acc) u [] in
  Maxflow.max_flow (Digraph.of_edges ~vertices:(Ugraph.vertices u) arcs) ~src:a ~dst:b

(* Edmonds-Karp: BFS shortest augmenting paths on a hashtable residual
   network, an implementation independent of Maxflow's Dinic. *)
let edmonds_karp g ~src ~dst =
  let res = Hashtbl.create 64 in
  let cap a b = Option.value ~default:0 (Hashtbl.find_opt res (a, b)) in
  Digraph.fold_edges (fun s d c () -> Hashtbl.replace res (s, d) (cap s d + c)) g ();
  let neighbors v =
    List.sort_uniq compare
      (List.map fst (Digraph.out_edges g v) @ List.map fst (Digraph.in_edges g v))
  in
  let rec augment total =
    let pred = Hashtbl.create 16 in
    let q = Queue.create () in
    Queue.add src q;
    Hashtbl.replace pred src src;
    while (not (Hashtbl.mem pred dst)) && not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun w ->
          if (not (Hashtbl.mem pred w)) && cap v w > 0 then begin
            Hashtbl.replace pred w v;
            Queue.add w q
          end)
        (neighbors v)
    done;
    if not (Hashtbl.mem pred dst) then total
    else begin
      let rec path v acc = if v = src then acc else path (Hashtbl.find pred v) (v :: acc) in
      let hops = List.map (fun v -> (Hashtbl.find pred v, v)) (path dst []) in
      let b = List.fold_left (fun b (p, v) -> min b (cap p v)) max_int hops in
      List.iter
        (fun (p, v) ->
          Hashtbl.replace res (p, v) (cap p v - b);
          Hashtbl.replace res (v, p) (cap v p + b))
        hops;
      augment (total + b)
    end
  in
  augment 0

(* Karger: contract capacity-weighted random edges until two groups remain;
   the crossing capacity is always >= the global min cut, and equals it
   with probability >= 2/n(n-1) per trial. *)
let karger_trial u st =
  let parent = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace parent v v) (Ugraph.vertices u);
  let rec find v =
    let p = Hashtbl.find parent v in
    if p = v then v
    else begin
      let r = find p in
      Hashtbl.replace parent v r;
      r
    end
  in
  let edges = Array.of_list (Ugraph.edges u) in
  let total_cap = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 edges in
  let groups = ref (Ugraph.num_vertices u) in
  while !groups > 2 do
    let target = Random.State.int st total_cap in
    let rec pick i acc =
      let _, _, c = edges.(i) in
      if acc + c > target then edges.(i) else pick (i + 1) (acc + c)
    in
    let a, b, _ = pick 0 0 in
    if find a <> find b then begin
      Hashtbl.replace parent (find a) (find b);
      decr groups
    end
  done;
  let rep = find (List.hd (Ugraph.vertices u)) in
  let side = Vset.of_list (List.filter (fun v -> find v = rep) (Ugraph.vertices u)) in
  let value =
    Ugraph.fold_edges
      (fun a b c acc -> if Vset.mem a side <> Vset.mem b side then acc + c else acc)
      u 0
  in
  (value, side)

(* Best of ceil(n^2 ln n) trials: the min cut with high probability. *)
let karger_min_cut u ~seed =
  let n = float_of_int (Ugraph.num_vertices u) in
  let trials = max 1 (int_of_float (ceil (n *. n *. log n))) in
  let st = Random.State.make [| seed; 0xCA26E2 |] in
  List.fold_left
    (fun best _ ->
      let (v, _) as cut = karger_trial u st in
      if v < fst best then cut else best)
    (max_int, Vset.empty) (List.init trials Fun.id)

(* ---------- Digraph basics ---------- *)

let test_digraph_crud () =
  let g = Digraph.of_edges ~vertices:[ 9 ] [ (1, 2, 3); (2, 1, 1); (2, 3, 2) ] in
  Alcotest.(check int) "vertices" 4 (Digraph.num_vertices g);
  Alcotest.(check int) "edges" 3 (Digraph.num_edges g);
  Alcotest.(check int) "cap" 3 (Digraph.cap g 1 2);
  Alcotest.(check int) "missing cap" 0 (Digraph.cap g 3 1);
  Alcotest.(check int) "total capacity" 6 (Digraph.total_capacity g);
  Alcotest.(check (list int)) "neighbors of 2" [ 1; 3 ] (Digraph.neighbors g 2);
  Alcotest.(check int) "out degree" 2 (Digraph.out_degree g 2);
  Alcotest.(check int) "in degree" 1 (Digraph.in_degree g 2);
  let g' = Digraph.remove_vertex g 2 in
  Alcotest.(check int) "vertex removal drops edges" 0 (Digraph.num_edges g');
  Alcotest.(check bool) "vertex gone" false (Digraph.mem_vertex g' 2);
  let g'' = Digraph.remove_pair g 1 2 in
  Alcotest.(check int) "remove_pair kills both" 1 (Digraph.num_edges g'')

let test_digraph_validation () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Digraph.add_edge: capacity must be positive") (fun () ->
      ignore (Digraph.add_edge Digraph.empty ~src:1 ~dst:2 ~cap:0));
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.add_edge: self-loop")
    (fun () -> ignore (Digraph.add_edge Digraph.empty ~src:1 ~dst:1 ~cap:1))

let test_induced () =
  let g = Gen.complete ~n:5 ~cap:1 in
  let sub = Digraph.induced g (Vset.of_list [ 1; 2; 3 ]) in
  Alcotest.(check int) "induced vertices" 3 (Digraph.num_vertices sub);
  Alcotest.(check int) "induced edges" 6 (Digraph.num_edges sub);
  Alcotest.(check bool) "is subgraph" true (Digraph.subgraph_p g ~sub)

let test_reachable () =
  let g = Digraph.of_edges [ (1, 2, 1); (2, 3, 1) ] in
  Alcotest.(check bool) "1 reaches 3" true (Vset.mem 3 (Digraph.reachable g 1));
  Alcotest.(check bool) "3 reaches nothing" false (Vset.mem 1 (Digraph.reachable g 3));
  Alcotest.(check bool) "not strongly connected" false (Digraph.is_strongly_connected g);
  Alcotest.(check bool) "complete strongly connected" true
    (Digraph.is_strongly_connected (Gen.complete ~n:4 ~cap:1))

(* ---------- Ugraph ---------- *)

let test_ugraph_of_digraph () =
  let d = Digraph.of_edges [ (1, 2, 2); (2, 1, 3); (2, 3, 1) ] in
  let u = Ugraph.of_digraph d in
  Alcotest.(check int) "sum of directions" 5 (Ugraph.cap u 1 2);
  Alcotest.(check int) "one direction only" 1 (Ugraph.cap u 3 2);
  Alcotest.(check int) "undirected edge count" 2 (Ugraph.num_edges u)

let test_ugraph_symmetry =
  qtest "of_digraph symmetric caps" graph_gen (fun g ->
      let u = Ugraph.of_digraph g in
      List.for_all (fun (a, b, c) -> Ugraph.cap u b a = c) (Ugraph.edges u))

(* ---------- Maxflow ---------- *)

let test_figure1_mincuts () =
  (* The exact numbers the paper states for Figure 1(a). *)
  let g = Gen.figure1a in
  Alcotest.(check int) "MINCUT(1,2)" 2 (Maxflow.max_flow g ~src:1 ~dst:2);
  Alcotest.(check int) "MINCUT(1,3)" 3 (Maxflow.max_flow g ~src:1 ~dst:3);
  Alcotest.(check int) "MINCUT(1,4)" 2 (Maxflow.max_flow g ~src:1 ~dst:4);
  Alcotest.(check int) "gamma" 2 (Maxflow.broadcast_mincut g ~src:1);
  Alcotest.(check bool) "no edge 2-4" true
    ((not (Digraph.mem_edge g 2 4)) && not (Digraph.mem_edge g 4 2))

let test_maxflow_disconnected () =
  let g = Digraph.of_edges ~vertices:[ 3 ] [ (1, 2, 5) ] in
  Alcotest.(check int) "unreachable" 0 (Maxflow.max_flow g ~src:1 ~dst:3);
  Alcotest.(check int) "broadcast 0" 0 (Maxflow.broadcast_mincut g ~src:1)

let cut_capacity g side =
  Digraph.fold_edges
    (fun s d c acc -> if Vset.mem s side && not (Vset.mem d side) then acc + c else acc)
    g 0

let test_maxflow_equals_cut =
  qtest "max flow = capacity of returned min cut" graph_gen (fun g ->
      let verts = Digraph.vertices g in
      let src = List.hd verts and dst = List.nth verts (List.length verts - 1) in
      let v, side = Maxflow.min_cut g ~src ~dst in
      Vset.mem src side && (not (Vset.mem dst side)) && cut_capacity g side = v)

let test_flow_conservation =
  qtest "flow conservation and capacity" graph_gen (fun g ->
      let verts = Digraph.vertices g in
      let src = List.hd verts and dst = List.nth verts (List.length verts - 1) in
      let v, flows = Maxflow.max_flow_edges g ~src ~dst in
      let within_caps =
        List.for_all (fun ((s, d), fl) -> fl >= 0 && fl <= Digraph.cap g s d) flows
      in
      let net w =
        List.fold_left
          (fun acc ((s, d), fl) ->
            if s = w then acc + fl else if d = w then acc - fl else acc)
          0 flows
      in
      within_caps && net src = v && net dst = -v
      && List.for_all (fun w -> w = src || w = dst || net w = 0) verts)

let test_flow_decompose =
  qtest "flow decomposes into value-many paths" graph_gen (fun g ->
      let verts = Digraph.vertices g in
      let src = List.hd verts and dst = List.nth verts (List.length verts - 1) in
      let v, flows = Maxflow.max_flow_edges g ~src ~dst in
      let paths = Maxflow.flow_decompose g flows ~src ~dst in
      List.length paths = v
      && List.for_all
           (fun p ->
             List.hd p = src
             && List.nth p (List.length p - 1) = dst
             &&
             let rec edges_ok = function
               | a :: (b :: _ as rest) -> Digraph.mem_edge g a b && edges_ok rest
               | _ -> true
             in
             edges_ok p)
           paths)

let test_min_cut_edges () =
  let g = Gen.figure1a in
  let v, cut = Maxflow.min_cut_edges g ~src:1 ~dst:4 in
  Alcotest.(check int) "cut value" 2 v;
  let total = List.fold_left (fun acc (s, d) -> acc + Digraph.cap g s d) 0 cut in
  Alcotest.(check int) "cut edges sum to value" 2 total

(* ---------- Stoer-Wagner ---------- *)

let test_stoer_wagner_known () =
  (* Paper example: U for the two Omega subgraphs of Figure 1(b). *)
  let gb = Gen.figure1b in
  let u124 = Ugraph.of_digraph (Digraph.induced gb (Vset.of_list [ 1; 2; 4 ])) in
  let u134 = Ugraph.of_digraph (Digraph.induced gb (Vset.of_list [ 1; 3; 4 ])) in
  Alcotest.(check int) "U {1,2,4}" 2 (Stoer_wagner.min_cut_value u124);
  Alcotest.(check int) "U {1,3,4}" 3 (Stoer_wagner.min_cut_value u134)

let test_stoer_wagner_duplicate_edges () =
  (* The seed adjacency matrix overwrote on a repeated pair, so a
     multigraph-style edge list lost all but the last entry. (1,2) is split
     1 + 1 below and is on the min cut: overwriting yields 4, the true
     value is 5. Cross-checked against Karger on the summed simple graph. *)
  let vertices = [ 1; 2; 3 ] in
  let dup = [ (1, 2, 1); (1, 2, 1); (2, 3, 3); (1, 3, 3) ] in
  let summed = Ugraph.of_edges [ (1, 2, 2); (2, 3, 3); (1, 3, 3) ] in
  let v_dup, side = Stoer_wagner.min_cut_edges ~vertices dup in
  Alcotest.(check int) "duplicates accumulate" 5 v_dup;
  Alcotest.(check int) "matches simple-graph Stoer-Wagner" v_dup
    (Stoer_wagner.min_cut_value summed);
  let v_karger, _ = karger_min_cut summed ~seed:13 in
  Alcotest.(check int) "matches Karger on the summed graph" v_dup v_karger;
  let crossing =
    List.fold_left
      (fun acc (a, b, c) -> if Vset.mem a side <> Vset.mem b side then acc + c else acc)
      0 dup
  in
  Alcotest.(check int) "returned side realises the value" v_dup crossing

let test_stoer_wagner_duplicate_edges_random =
  qtest ~count:40 "split edge = summed edge (Karger cross-check)" graph_gen
    (fun g ->
      let u = Ugraph.of_digraph g in
      (* Split every edge into two entries summing to its capacity. *)
      let split =
        Ugraph.fold_edges
          (fun a b c acc ->
            if c > 1 then (a, b, 1) :: (a, b, c - 1) :: acc else (a, b, c) :: acc)
          u []
      in
      let v_split, _ = Stoer_wagner.min_cut_edges ~vertices:(Ugraph.vertices u) split in
      let sw = Stoer_wagner.min_cut_value u in
      let v_karger, _ = karger_min_cut u ~seed:7 in
      v_split = sw && v_split = v_karger)

let test_stoer_wagner_vs_pairwise =
  qtest ~count:60 "global min cut = min pairwise min cut" graph_gen (fun g ->
      let u = Ugraph.of_digraph g in
      let verts = Ugraph.vertices u in
      let v0 = List.hd verts in
      let pairwise =
        List.fold_left
          (fun acc v ->
            if v = v0 then acc else min acc (pair_mincut_undirected u v0 v))
          max_int (List.tl verts)
      in
      (* The global min cut separates v0 from someone, so the min over pairs
         with v0 fixed equals the global value. *)
      Stoer_wagner.min_cut_value u = pairwise)

let test_stoer_wagner_partition =
  qtest ~count:60 "returned side realises the value" graph_gen (fun g ->
      let u = Ugraph.of_digraph g in
      let v, side = Stoer_wagner.min_cut u in
      let crossing =
        Ugraph.fold_edges
          (fun a b c acc -> if Vset.mem a side <> Vset.mem b side then acc + c else acc)
          u 0
      in
      crossing = v
      && (not (Vset.is_empty side))
      && Vset.cardinal side < Ugraph.num_vertices u)

(* ---------- Connectivity ---------- *)

let test_connectivity_known () =
  Alcotest.(check int) "complete K5" 4
    (Connectivity.vertex_connectivity (Gen.complete ~n:5 ~cap:1));
  Alcotest.(check int) "ring" 2 (Connectivity.vertex_connectivity (Gen.ring ~n:6 ~cap:1));
  Alcotest.(check int) "ring with chords" 4
    (Connectivity.vertex_connectivity (Gen.ring_with_chords ~n:7 ~cap:1 ~chord_cap:1));
  Alcotest.(check int) "figure1a" 1 (Connectivity.vertex_connectivity Gen.figure1a);
  Alcotest.(check bool) "dumbbell is 3-connected" true
    (Connectivity.vertex_connectivity (Gen.dumbbell ~clique:4 ~clique_cap:4 ~bridge_cap:1)
    >= 3)

let test_disjoint_paths_disjoint =
  qtest ~count:60 "paths are internally node-disjoint" graph_gen (fun g ->
      let verts = Digraph.vertices g in
      let src = List.hd verts and dst = List.nth verts (List.length verts - 1) in
      let paths = Connectivity.disjoint_paths g ~src ~dst in
      let internals =
        List.map (fun p -> List.filter (fun v -> v <> src && v <> dst) p) paths
      in
      let all = List.concat internals in
      List.length paths = Connectivity.max_disjoint_paths g ~src ~dst
      && List.length all = List.length (List.sort_uniq compare all)
      && List.for_all
           (fun p ->
             let rec ok = function
               | a :: (b :: _ as rest) -> Digraph.mem_edge g a b && ok rest
               | _ -> true
             in
             List.hd p = src && List.nth p (List.length p - 1) = dst && ok p)
           paths)

let test_meets_requirement () =
  Alcotest.(check bool) "K4 f=1" true
    (Connectivity.meets_requirement (Gen.complete ~n:4 ~cap:1) ~f:1);
  Alcotest.(check bool) "K4 f=2 (too few nodes)" false
    (Connectivity.meets_requirement (Gen.complete ~n:4 ~cap:1) ~f:2);
  Alcotest.(check bool) "ring f=1 (connectivity 2 < 3)" false
    (Connectivity.meets_requirement (Gen.ring ~n:6 ~cap:1) ~f:1)

(* ---------- Arborescence ---------- *)

let test_figure2_packing () =
  let g = Gen.figure2 in
  Alcotest.(check int) "fig2 gamma" 2 (Maxflow.broadcast_mincut g ~src:1);
  let trees = Arborescence.pack g ~root:1 ~k:2 in
  Alcotest.(check int) "two trees" 2 (List.length trees);
  (match Arborescence.verify g ~root:1 trees with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Both trees must use edge (1,2), as the paper's Figure 2(c) shows. *)
  List.iter
    (fun t -> Alcotest.(check bool) "uses (1,2)" true (List.mem (1, 2) t))
    trees

let test_pack_random =
  qtest ~count:40 "packing gamma trees always verifies" graph_gen (fun g ->
      let gamma = Maxflow.broadcast_mincut g ~src:1 in
      gamma = 0
      ||
      let trees = Arborescence.pack g ~root:1 ~k:gamma in
      List.length trees = gamma && Arborescence.verify g ~root:1 trees = Ok ())

(* Directed variant of [graph_gen]: drop each arc with probability 1/4, so
   some vertices become unreachable and cuts differ by direction. *)
let digraph_gen =
  QCheck2.Gen.(
    pair graph_gen (int_range 0 10_000) >>= fun (g, seed) ->
    let st = Random.State.make [| seed |] in
    return
      (Digraph.fold_edges
         (fun s d _ acc -> if Random.State.int st 4 = 0 then Digraph.remove_edge acc s d else acc)
         g g))

let test_broadcast_at_least_matches_max_flow =
  qtest ~count:150 "broadcast_at_least = for_all (max_flow >= need)"
    QCheck2.Gen.(triple digraph_gen (int_range 1 7) (int_range (-1) 12))
    (fun (g, src, need) ->
      let vs = Digraph.vertices g in
      let src = List.nth vs (src mod List.length vs) in
      let reference =
        need <= 0
        || List.for_all (fun v -> v = src || Maxflow.max_flow g ~src ~dst:v >= need) vs
      in
      Maxflow.broadcast_at_least g ~src ~need = reference
      && Maxflow.broadcast_mincut g ~src
         = List.fold_left
             (fun acc v -> if v = src then acc else min acc (Maxflow.max_flow g ~src ~dst:v))
             max_int vs)

(* Arborescence packing with the per-vertex max-flow connectivity test it
   used before [Maxflow.broadcast_at_least]: the trees must come out the
   same, arc for arc. *)
let reference_pack g ~root ~k =
  let connectivity_at_least g ~root need =
    need <= 0
    || List.for_all
         (fun v -> v = root || Maxflow.max_flow g ~src:root ~dst:v >= need)
         (Digraph.vertices g)
  in
  let decrement_cap g u v =
    let c = Digraph.cap g u v in
    let g = Digraph.remove_edge g u v in
    if c = 1 then g else Digraph.add_edge g ~src:u ~dst:v ~cap:(c - 1)
  in
  let grow_tree g ~remaining =
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
        let g', u, v =
          List.find_map
            (fun (u, v) ->
              let g' = decrement_cap g u v in
              if connectivity_at_least g' ~root remaining then Some (g', u, v) else None)
            (List.rev candidates)
          |> Option.get
        in
        go g' (Vset.add v covered) ((u, v) :: tree)
      end
    in
    go g (Vset.singleton root) []
  in
  let rec go g remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      let g', tree = grow_tree g ~remaining:(remaining - 1) in
      go g' (remaining - 1) (tree :: acc)
    end
  in
  go g k []

let test_pack_matches_reference =
  qtest ~count:40 "pack = per-vertex max-flow reference" graph_gen (fun g ->
      let gamma = Maxflow.broadcast_mincut g ~src:1 in
      List.for_all
        (fun k -> Arborescence.pack g ~root:1 ~k = reference_pack g ~root:1 ~k)
        (List.init (gamma + 1) Fun.id))

let test_pack_infeasible () =
  let g = Gen.figure2 in
  Alcotest.check_raises "k too large"
    (Invalid_argument "Arborescence.pack: k exceeds the root broadcast min-cut")
    (fun () -> ignore (Arborescence.pack g ~root:1 ~k:3))

let test_tree_navigation () =
  let t = [ (1, 2); (1, 4); (2, 3) ] in
  Alcotest.(check (list int)) "children of 1" [ 2; 4 ] (Arborescence.children t 1);
  Alcotest.(check (option int)) "parent of 3" (Some 2) (Arborescence.parent t 3);
  Alcotest.(check (option int)) "root has no parent" None (Arborescence.parent t 1);
  Alcotest.(check int) "depth" 2 (Arborescence.depth t ~root:1);
  Alcotest.(check (list (pair int int)))
    "by depth"
    [ (1, 0); (2, 1); (4, 1); (3, 2) ]
    (Arborescence.vertices_by_depth t ~root:1)

let test_verify_rejects_bad () =
  let g = Gen.figure2 in
  (* A "tree" missing node 3. *)
  (match Arborescence.verify g ~root:1 [ [ (1, 2); (2, 4) ] ] with
  | Ok () -> Alcotest.fail "accepted non-spanning tree"
  | Error _ -> ());
  (* Capacity overuse: (1,4) has capacity 1 but is used twice. *)
  let t = [ (1, 2); (1, 4); (4, 3) ] in
  match Arborescence.verify g ~root:1 [ t; t ] with
  | Ok () -> Alcotest.fail "accepted capacity violation"
  | Error _ -> ()

(* ---------- Spanning ---------- *)

let test_bfs_tree () =
  let u = Ugraph.of_digraph (Gen.complete ~n:5 ~cap:1) in
  let t = Spanning.bfs_tree u ~root:1 in
  Alcotest.(check bool) "spanning" true (Spanning.is_spanning_tree u t);
  Alcotest.(check int) "n-1 edges" 4 (List.length t)

(* ---------- Edmonds-Karp cross-check ---------- *)

let test_edmonds_karp_matches_dinic =
  qtest ~count:80 "Edmonds-Karp = Dinic on all pairs" graph_gen (fun g ->
      let verts = Digraph.vertices g in
      List.for_all
        (fun s ->
          List.for_all
            (fun d ->
              s = d
              || edmonds_karp g ~src:s ~dst:d = Maxflow.max_flow g ~src:s ~dst:d)
            verts)
        verts)

(* ---------- Karger ---------- *)

let test_karger_upper_bound =
  qtest ~count:30 "every Karger trial is an upper bound" graph_gen (fun g ->
      let u = Ugraph.of_digraph g in
      let sw = Stoer_wagner.min_cut_value u in
      let st = Random.State.make [| 77 |] in
      List.for_all (fun _ -> fst (karger_trial u st) >= sw) (List.init 10 Fun.id))

let test_karger_finds_min_whp =
  qtest ~count:20 "enough Karger trials find the min cut" graph_gen (fun g ->
      let u = Ugraph.of_digraph g in
      let v, side = karger_min_cut u ~seed:5 in
      let crossing =
        Ugraph.fold_edges
          (fun a b c acc -> if Vset.mem a side <> Vset.mem b side then acc + c else acc)
          u 0
      in
      v = Stoer_wagner.min_cut_value u && crossing = v)

(* ---------- Graphfile ---------- *)

let test_graphfile_roundtrip =
  qtest ~count:50 "parse(print g) = g" graph_gen (fun g ->
      match Graphfile.parse (Graphfile.print g) with
      | Ok g' -> Digraph.equal g g'
      | Error _ -> false)

let test_graphfile_parse () =
  let doc = "# demo\nnode 9\n\nedge 1 2 3 # inline comment\nbiedge 2 3 1\n" in
  (match Graphfile.parse doc with
  | Error e -> Alcotest.fail e
  | Ok g ->
      Alcotest.(check int) "vertices" 4 (Digraph.num_vertices g);
      Alcotest.(check int) "cap 1->2" 3 (Digraph.cap g 1 2);
      Alcotest.(check int) "biedge both ways" 1 (Digraph.cap g 3 2));
  (match Graphfile.parse "edge 1 2\n" with
  | Error e -> Alcotest.(check bool) "line number" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "accepted malformed edge");
  match Graphfile.parse "edge 1 1 4\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted self-loop"

let test_graphfile_never_crashes =
  qtest ~count:300 "parser totals on arbitrary junk"
    QCheck2.Gen.(string_size ~gen:printable (int_bound 80))
    (fun junk ->
      match Graphfile.parse junk with Ok _ | Error _ -> true)

let test_graphfile_isolated_nodes () =
  let g = Digraph.add_vertex (Gen.figure2) 42 in
  match Graphfile.parse (Graphfile.print g) with
  | Ok g' -> Alcotest.(check bool) "isolated survives" true (Digraph.mem_vertex g' 42)
  | Error e -> Alcotest.fail e

(* ---------- Gen / Dot ---------- *)

let test_generators_shape () =
  Alcotest.(check int) "complete edges" 20 (Digraph.num_edges (Gen.complete ~n:5 ~cap:1));
  Alcotest.(check int) "ring edges" 12 (Digraph.num_edges (Gen.ring ~n:6 ~cap:1));
  let d = Gen.dumbbell ~clique:4 ~clique_cap:8 ~bridge_cap:1 in
  Alcotest.(check int) "dumbbell nodes" 8 (Digraph.num_vertices d);
  let s = Gen.star_mesh ~n:5 ~spoke_cap:4 ~mesh_cap:1 in
  Alcotest.(check int) "star spoke cap" 4 (Digraph.cap s 1 2);
  Alcotest.(check int) "star mesh cap" 1 (Digraph.cap s 2 3)

let test_hypercube_torus () =
  let h3 = Gen.hypercube ~dims:3 ~cap:1 in
  Alcotest.(check int) "Q3 nodes" 8 (Digraph.num_vertices h3);
  Alcotest.(check int) "Q3 edges" 24 (Digraph.num_edges h3);
  Alcotest.(check int) "Q3 connectivity = dims" 3 (Connectivity.vertex_connectivity h3);
  List.iter
    (fun v -> Alcotest.(check int) "3-regular" 3 (List.length (Digraph.neighbors h3 v)))
    (Digraph.vertices h3);
  let t = Gen.torus ~rows:3 ~cols:4 ~cap:2 in
  Alcotest.(check int) "torus nodes" 12 (Digraph.num_vertices t);
  List.iter
    (fun v -> Alcotest.(check int) "4-regular" 4 (List.length (Digraph.neighbors t v)))
    (Digraph.vertices t);
  Alcotest.(check int) "torus connectivity" 4 (Connectivity.vertex_connectivity t);
  (* Both satisfy the BB requirement at f = 1. *)
  Alcotest.(check bool) "Q3 feasible f=1" true (Connectivity.meets_requirement h3 ~f:1);
  Alcotest.(check bool) "torus feasible f=1" true (Connectivity.meets_requirement t ~f:1)

let test_random_feasible =
  qtest ~count:20 "random_bb_feasible meets requirements"
    (QCheck2.Gen.int_range 0 1000)
    (fun seed ->
      let g = Gen.random_bb_feasible ~n:5 ~f:1 ~p:0.8 ~min_cap:1 ~max_cap:3 ~seed in
      Connectivity.meets_requirement g ~f:1 && Digraph.is_strongly_connected g)

(* The campaign samplers lean on random_bb_feasible producing networks with
   vertex connectivity >= 2f+1 whatever the seed and density — check the
   connectivity value itself, not just the packaged predicate, across both
   fault budgets and a sparse edge probability. *)
let test_random_feasible_connectivity =
  qtest ~count:25 "random_bb_feasible is 2f+1-connected across seeds"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 1))
    (fun (seed, fidx) ->
      let f = 1 + fidx in
      let n = (3 * f) + 1 + (seed mod 3) in
      let g = Gen.random_bb_feasible ~n ~f ~p:0.5 ~min_cap:1 ~max_cap:4 ~seed in
      Digraph.num_vertices g = n
      && Connectivity.vertex_connectivity g >= (2 * f) + 1
      && Connectivity.meets_requirement g ~f)

let test_metrics () =
  let m = Metrics.compute (Gen.complete ~n:5 ~cap:3) in
  Alcotest.(check int) "nodes" 5 m.Metrics.nodes;
  Alcotest.(check int) "edges" 20 m.Metrics.edges;
  Alcotest.(check int) "total capacity" 60 m.Metrics.total_capacity;
  Alcotest.(check int) "diameter" 1 m.Metrics.diameter;
  Alcotest.(check int) "connectivity" 4 m.Metrics.vertex_connectivity;
  Alcotest.(check int) "max f: n>=3f+1 and kappa>=2f+1" 1 m.Metrics.max_f;
  let ring = Metrics.compute (Gen.ring ~n:6 ~cap:1) in
  Alcotest.(check int) "ring diameter" 3 ring.Metrics.diameter;
  Alcotest.(check int) "ring tolerates nothing" 0 ring.Metrics.max_f;
  let dangling = Digraph.of_edges [ (1, 2, 1) ] in
  Alcotest.(check int) "one-way diameter -1" (-1) (Metrics.compute dangling).Metrics.diameter;
  Alcotest.(check int) "eccentricity" 2
    (Metrics.eccentricity (Gen.ring ~n:5 ~cap:1) 1)

let test_dot_output () =
  let s = Dot.of_digraph ~name:"test" Gen.figure2 in
  Alcotest.(check bool) "digraph header" true (contains_sub s "digraph test");
  Alcotest.(check bool) "directed edge" true (contains_sub s "1 -> 2");
  let u = Dot.of_ugraph (Ugraph.of_digraph Gen.figure2) in
  Alcotest.(check bool) "undirected edges" true (contains_sub u "--");
  let h = Dot.of_digraph ~highlight:[ (1, 2) ] Gen.figure2 in
  Alcotest.(check bool) "highlight red" true (contains_sub h "color=red")

let () =
  Alcotest.run "graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "crud" `Quick test_digraph_crud;
          Alcotest.test_case "validation" `Quick test_digraph_validation;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "reachable" `Quick test_reachable;
        ] );
      ( "ugraph",
        [
          Alcotest.test_case "of_digraph" `Quick test_ugraph_of_digraph;
          test_ugraph_symmetry;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "figure 1 mincuts" `Quick test_figure1_mincuts;
          Alcotest.test_case "disconnected" `Quick test_maxflow_disconnected;
          test_maxflow_equals_cut;
          test_flow_conservation;
          test_flow_decompose;
          Alcotest.test_case "min cut edges" `Quick test_min_cut_edges;
          test_broadcast_at_least_matches_max_flow;
        ] );
      ( "stoer-wagner",
        [
          Alcotest.test_case "paper example" `Quick test_stoer_wagner_known;
          Alcotest.test_case "duplicate edge pairs accumulate" `Quick
            test_stoer_wagner_duplicate_edges;
          test_stoer_wagner_duplicate_edges_random;
          test_stoer_wagner_vs_pairwise;
          test_stoer_wagner_partition;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "known values" `Quick test_connectivity_known;
          test_disjoint_paths_disjoint;
          Alcotest.test_case "meets requirement" `Quick test_meets_requirement;
        ] );
      ( "arborescence",
        [
          Alcotest.test_case "figure 2 packing" `Quick test_figure2_packing;
          test_pack_random;
          test_pack_matches_reference;
          Alcotest.test_case "infeasible k" `Quick test_pack_infeasible;
          Alcotest.test_case "navigation" `Quick test_tree_navigation;
          Alcotest.test_case "verify rejects bad" `Quick test_verify_rejects_bad;
        ] );
      ( "spanning",
        [
          Alcotest.test_case "bfs tree" `Quick test_bfs_tree;
        ] );
      ("edmonds-karp", [ test_edmonds_karp_matches_dinic ]);
      ( "karger",
        [ test_karger_upper_bound; test_karger_finds_min_whp ] );
      ( "graphfile",
        [
          test_graphfile_roundtrip;
          test_graphfile_never_crashes;
          Alcotest.test_case "parse" `Quick test_graphfile_parse;
          Alcotest.test_case "isolated nodes" `Quick test_graphfile_isolated_nodes;
        ] );
      ( "gen",
        [
          Alcotest.test_case "generator shapes" `Quick test_generators_shape;
          Alcotest.test_case "hypercube and torus" `Quick test_hypercube_torus;
          Alcotest.test_case "metrics" `Quick test_metrics;
          test_random_feasible;
          test_random_feasible_connectivity;
          Alcotest.test_case "dot output" `Quick test_dot_output;
        ] );
    ]
