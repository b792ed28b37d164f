(* Tests for Params (gamma_k, Omega_k, U_k, rho_k, Gamma, gamma*, rho*,
   Theorem 2/3 bounds) and Pipeline (Figure 3). *)

open Nab_graph
open Nab_core

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let feasible_gen =
  QCheck2.Gen.(
    int_range 0 500 >>= fun seed ->
    return (Gen.random_bb_feasible ~n:5 ~f:1 ~p:0.8 ~min_cap:1 ~max_cap:3 ~seed))

(* ---------- paper's worked example (Figure 1) ---------- *)

let test_paper_example () =
  (* gamma for Figure 1(a) is 2 (Section 2). *)
  Alcotest.(check int) "gamma" 2 (Params.gamma_k Gen.figure1a ~source:1);
  (* With nodes 2,3 in dispute (Figure 1(b)), n=4, f=1: Omega_k consists of
     the node sets {1,2,4} and {1,3,4}, and U_k = 2 (Section 3). *)
  let disputes = [ Params.norm_dispute 3 2 ] in
  let omega = Params.omega_k Gen.figure1b ~total_n:4 ~f:1 ~disputes in
  Alcotest.(check (list (list int)))
    "Omega_k"
    [ [ 1; 2; 4 ]; [ 1; 3; 4 ] ]
    (List.map Vset.elements omega);
  Alcotest.(check int) "U_k" 2 (Params.u_k Gen.figure1b ~total_n:4 ~f:1 ~disputes);
  Alcotest.(check int) "rho_k" 1 (Params.rho_k Gen.figure1b ~total_n:4 ~f:1 ~disputes)

let test_norm_dispute () =
  Alcotest.(check (pair int int)) "normalised" (2, 5) (Params.norm_dispute 5 2);
  Alcotest.check_raises "self" (Invalid_argument "Params.norm_dispute: self-dispute")
    (fun () -> ignore (Params.norm_dispute 3 3))

(* ---------- Omega / U / rho ---------- *)

let test_omega_no_disputes () =
  let g = Gen.complete ~n:4 ~cap:1 in
  let omega = Params.omega_k g ~total_n:4 ~f:1 ~disputes:[] in
  Alcotest.(check int) "C(4,3) subsets" 4 (List.length omega)

let test_omega_excludes_disputed =
  qtest "no subgraph contains a disputed pair" feasible_gen (fun g ->
      let disputes = [ (2, 3); (4, 5) ] in
      let omega = Params.omega_k g ~total_n:5 ~f:1 ~disputes in
      List.for_all
        (fun h ->
          List.for_all (fun (a, b) -> not (Vset.mem a h && Vset.mem b h)) disputes)
        omega)

let test_u_monotone_under_disputes =
  qtest "U_k never below U_1 after dispute removal" feasible_gen (fun g ->
      (* Omega_k shrinks when disputes accumulate, so U can only grow:
         U_k >= U_1 (the paper uses this to justify rho* = U_1/2). *)
      let u1 = Params.u_k g ~total_n:5 ~f:1 ~disputes:[] in
      let disputes = [ (4, 5) ] in
      let g' = Params.apply_disputes g ~total_n:5 ~f:1 ~disputes in
      (* apply_disputes may remove no vertex here (one dispute, f=1: both of
         4,5 are candidate culprits, neither is in every cover). *)
      Digraph.num_vertices g' < 5
      || Params.u_k g' ~total_n:5 ~f:1 ~disputes >= u1)

(* ---------- necessarily_faulty / apply_disputes ---------- *)

let test_necessarily_faulty_pigeonhole () =
  let vs = Vset.of_list [ 1; 2; 3; 4; 5; 6; 7 ] in
  (* Node 7 disputes with f+1 = 3 distinct peers: every cover of size <= 2
     must contain 7. *)
  let disputes = [ (1, 7); (2, 7); (3, 7) ] in
  let nf = Params.necessarily_faulty vs ~f:2 ~disputes in
  Alcotest.(check (list int)) "7 convicted" [ 7 ] (Vset.elements nf);
  (* A single dispute convicts nobody. *)
  let nf1 = Params.necessarily_faulty vs ~f:2 ~disputes:[ (1, 2) ] in
  Alcotest.(check (list int)) "ambiguous" [] (Vset.elements nf1)

let test_necessarily_faulty_unexplainable () =
  let vs = Vset.of_list [ 1; 2; 3; 4 ] in
  (* A triangle of disputes needs 2 nodes to cover; f = 1 cannot explain. *)
  Alcotest.check_raises "unexplainable"
    (Invalid_argument "Params.necessarily_faulty: disputes not explainable by <= f nodes")
    (fun () ->
      ignore (Params.necessarily_faulty vs ~f:1 ~disputes:[ (1, 2); (2, 3); (1, 3) ]))

let test_apply_disputes_removes_edges () =
  let g = Gen.complete ~n:4 ~cap:1 in
  let g' = Params.apply_disputes g ~total_n:4 ~f:1 ~disputes:[ (2, 3) ] in
  Alcotest.(check bool) "edge gone" false (Digraph.mem_edge g' 2 3);
  Alcotest.(check bool) "reverse gone" false (Digraph.mem_edge g' 3 2);
  Alcotest.(check int) "no vertex removed" 4 (Digraph.num_vertices g')

let test_apply_disputes_removes_convicted () =
  let g = Gen.complete ~n:4 ~cap:1 in
  let disputes = [ (1, 4); (2, 4) ] in
  (* f = 1: node 4 disputes two distinct peers -> in every 1-cover. *)
  let g' = Params.apply_disputes g ~total_n:4 ~f:1 ~disputes in
  Alcotest.(check bool) "node 4 excluded" false (Digraph.mem_vertex g' 4);
  Alcotest.(check int) "three remain" 3 (Digraph.num_vertices g')

let test_apply_disputes_with_stale_endpoint () =
  (* Disputes naming an already-removed node must not implicate survivors. *)
  let g = Digraph.remove_vertex (Gen.complete ~n:5 ~cap:1) 5 in
  let disputes = [ (1, 5); (2, 5); (3, 5) ] in
  let g' = Params.apply_disputes g ~total_n:5 ~f:1 ~disputes in
  Alcotest.(check int) "survivors intact" 4 (Digraph.num_vertices g')

(* ---------- Gamma / gamma* / stars ---------- *)

let test_psi_includes_original () =
  let g = Gen.complete ~n:4 ~cap:2 in
  let psis = Params.psi_graphs g ~source:1 ~f:1 in
  Alcotest.(check bool) "G in Gamma" true (List.exists (Digraph.equal g) psis);
  Alcotest.(check bool) "several graphs" true (List.length psis > 1)

let test_gamma_star_complete () =
  let g = Gen.complete ~n:4 ~cap:2 in
  let gs = Params.gamma_star g ~source:1 ~f:1 in
  Alcotest.(check bool) "gamma* <= gamma_1" true (gs <= Params.gamma_k g ~source:1);
  Alcotest.(check bool) "gamma* >= 1" true (gs >= 1)

let test_gamma_star_f0 () =
  let g = Gen.figure1a in
  Alcotest.(check int) "f=0: gamma* = gamma" 2 (Params.gamma_star g ~source:1 ~f:0)

let test_gamma_star_upper_bound =
  qtest ~count:30 "sampled gamma' upper bound dominates exact" feasible_gen (fun g ->
      (* Sampling evaluates a subset of Gamma, so it can only over-estimate
         the minimum. (Tightness is heuristic: the worst configuration need
         not be a maximal one, since extra exclusions can raise gamma.) *)
      Params.gamma_star_upper g ~source:1 ~f:1 ~samples:8 ~seed:3
      >= Params.gamma_star g ~source:1 ~f:1)

let test_gamma_star_upper_tight_on_k4 () =
  let g = Gen.complete ~n:4 ~cap:2 in
  Alcotest.(check int) "tight on K4" (Params.gamma_star g ~source:1 ~f:1)
    (Params.gamma_star_upper g ~source:1 ~f:1 ~samples:16 ~seed:1)

let test_stars_theorem3 =
  qtest ~count:25 "Theorem 3: T_NAB >= C_BB/3 (and /2 when gamma* <= rho*)"
    feasible_gen (fun g ->
      let s = Params.stars g ~source:1 ~f:1 in
      let min_ratio = if s.half_capacity_condition then 0.5 else 1.0 /. 3.0 in
      s.ratio >= min_ratio -. 1e-9
      && s.throughput_lb
         = float_of_int (s.gamma_star * s.rho_star)
           /. float_of_int (s.gamma_star + s.rho_star)
      && s.capacity_ub
         = Float.min (float_of_int s.gamma_star) (2.0 *. float_of_int s.rho_star))

let test_stars_k4 () =
  let s = Params.stars (Gen.complete ~n:4 ~cap:2) ~source:1 ~f:1 in
  (* K4/cap2: rho* = U_1/2 with U_1 = min over triangles of their global
     undirected min cut = 8, so rho* = 4. *)
  Alcotest.(check int) "rho*" 4 s.rho_star;
  Alcotest.(check bool) "ratio >= 1/3" true (s.ratio >= (1.0 /. 3.0) -. 1e-9)

(* ---------- Capacity witnesses (Theorem 2 / Appendix F) ---------- *)

let test_capacity_witnesses_verify () =
  List.iter
    (fun (name, g, f) ->
      match Capacity.verify g ~source:1 ~f with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" name e))
    [
      ("K4 cap 2", Gen.complete ~n:4 ~cap:2, 1);
      ("K7 f=2", Gen.complete ~n:7 ~cap:1, 2);
      ("chords7", Gen.ring_with_chords ~n:7 ~cap:2 ~chord_cap:1, 1);
      ("twin-cliques", Gen.twin_cliques ~half:2 ~spoke_cap:8 ~intra_cap:8 ~cross_cap:1, 1);
      ("dumbbell", Gen.dumbbell ~clique:3 ~clique_cap:4 ~bridge_cap:2, 1);
    ]

let test_capacity_witnesses_random =
  qtest ~count:25 "witnesses verify on random networks" feasible_gen (fun g ->
      Capacity.verify g ~source:1 ~f:1 = Ok ())

let test_gamma_witness_structure () =
  let g = Gen.complete ~n:4 ~cap:2 in
  let w = Capacity.gamma_witness g ~source:1 ~f:1 in
  Alcotest.(check int) "cut value = gamma*" (Params.gamma_star g ~source:1 ~f:1)
    w.Capacity.cut_value;
  (* The cut edges' capacities inside psi sum to the cut value. *)
  let total =
    List.fold_left
      (fun acc (a, b) -> acc + Digraph.cap w.Capacity.psi a b)
      0 w.Capacity.cut_edges
  in
  Alcotest.(check int) "cut edges realise the value" w.Capacity.cut_value total;
  Alcotest.(check bool) "bottleneck inside psi" true
    (Digraph.mem_vertex w.Capacity.psi w.Capacity.bottleneck_node)

let test_rho_witness_structure () =
  let g = Gen.twin_cliques ~half:2 ~spoke_cap:8 ~intra_cap:8 ~cross_cap:1 in
  let w = Capacity.rho_witness g ~f:1 in
  (* U_H = 2 rho* = 8 on this network, attained by the H excluding node 1. *)
  Alcotest.(check int) "U_H" 8 w.Capacity.u_h;
  Alcotest.(check bool) "H excludes the source" false (Vset.mem 1 w.Capacity.h_nodes);
  Alcotest.(check bool) "side is a proper subset" true
    (not (Vset.is_empty w.Capacity.side)
    && Vset.cardinal w.Capacity.side < Vset.cardinal w.Capacity.h_nodes)

(* ---------- Pipeline (Figure 3) ---------- *)

let test_pipeline_shape () =
  (* Instance i performs hop h in round i + h - 1 and Phase 2 in round
     i + hops: the staircase of Figure 3. *)
  Alcotest.(check string) "q=3, hops=2"
    "round    1    2    3    4    5    \n\
     inst 1   H1   H2   P2   .    .    \n\
     inst 2   .    H1   H2   P2   .    \n\
     inst 3   .    .    H1   H2   P2   \n"
    (Pipeline.render ~q:3 ~hops:2)

let test_pipeline_render () =
  let s = Pipeline.render ~q:2 ~hops:2 in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions P2" true (contains "P2");
  Alcotest.(check bool) "mentions hop 1" true (contains "H1")

let () =
  Alcotest.run "params"
    [
      ( "paper-example",
        [
          Alcotest.test_case "figure 1 quantities" `Quick test_paper_example;
          Alcotest.test_case "norm_dispute" `Quick test_norm_dispute;
        ] );
      ( "omega",
        [
          Alcotest.test_case "no disputes" `Quick test_omega_no_disputes;
          test_omega_excludes_disputed;
          test_u_monotone_under_disputes;
        ] );
      ( "dispute-application",
        [
          Alcotest.test_case "pigeonhole" `Quick test_necessarily_faulty_pigeonhole;
          Alcotest.test_case "unexplainable" `Quick test_necessarily_faulty_unexplainable;
          Alcotest.test_case "removes edges" `Quick test_apply_disputes_removes_edges;
          Alcotest.test_case "removes convicted" `Quick
            test_apply_disputes_removes_convicted;
          Alcotest.test_case "stale endpoints" `Quick
            test_apply_disputes_with_stale_endpoint;
        ] );
      ( "stars",
        [
          Alcotest.test_case "Gamma includes G" `Quick test_psi_includes_original;
          Alcotest.test_case "gamma* bounds" `Quick test_gamma_star_complete;
          Alcotest.test_case "gamma* at f=0" `Quick test_gamma_star_f0;
          test_gamma_star_upper_bound;
          Alcotest.test_case "sampled tight on K4" `Quick
            test_gamma_star_upper_tight_on_k4;
          test_stars_theorem3;
          Alcotest.test_case "K4 values" `Quick test_stars_k4;
        ] );
      ( "capacity-witnesses",
        [
          Alcotest.test_case "verify on families" `Quick test_capacity_witnesses_verify;
          test_capacity_witnesses_random;
          Alcotest.test_case "gamma witness structure" `Quick test_gamma_witness_structure;
          Alcotest.test_case "rho witness structure" `Quick test_rho_witness_structure;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "schedule shape" `Quick test_pipeline_shape;
          Alcotest.test_case "render" `Quick test_pipeline_render;
        ] );
    ]
