(* Determinism of the parallel analytical sweeps: every Params result must
   be identical whatever the Pool job count, and the pool itself must keep
   input order, propagate the lowest-index exception and survive nesting. *)

open Nab_graph
open Nab_core
module Pool = Nab_util.Pool

(* Run [f] at a fixed job count with a cold gamma memo, so a jobs=1 /
   jobs=4 comparison really recomputes everything instead of reading the
   first run's cache. *)
let at_jobs j f =
  Pool.set_jobs j;
  Params.clear_gamma_cache ();
  f ()

let same_at_1_and_4 name f check =
  let seq = at_jobs 1 f in
  let par = at_jobs 4 f in
  check name seq par

(* ---------- pool behaviour ---------- *)

let test_pool_order () =
  List.iter
    (fun n ->
      let xs = List.init n (fun i -> i) in
      Alcotest.(check (list int))
        (Printf.sprintf "map order n=%d" n)
        (List.map (fun x -> (x * 7) + 1) xs)
        (Pool.map ~jobs:4 (fun x -> (x * 7) + 1) xs))
    [ 0; 1; 2; 5; 33 ]

let test_pool_exception () =
  (* Both 3 and 7 raise; the caller must see the lowest index. *)
  Alcotest.check_raises "lowest-index failure wins" (Failure "task 3") (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun x ->
             if x = 3 || x = 7 then failwith (Printf.sprintf "task %d" x) else x)
           (List.init 10 (fun i -> i))))

let test_pool_nested () =
  (* A parallel task that itself maps in parallel: the waiting caller must
     help drain the queue instead of deadlocking. *)
  let table =
    Pool.map ~jobs:4
      (fun row -> Pool.map ~jobs:4 (fun col -> row * col) [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list (list int)))
    "nested maps complete with correct values"
    (List.init 4 (fun r -> List.init 4 (fun c -> r * c)))
    table

(* ---------- Params at jobs=1 vs jobs=4 ---------- *)

let star_t =
  let pp fmt (s : Params.star) =
    Format.fprintf fmt "{gamma*=%d rho*=%d lb=%.4f ub=%.4f ratio=%.4f half=%b}"
      s.gamma_star s.rho_star s.throughput_lb s.capacity_ub s.ratio
      s.half_capacity_condition
  in
  Alcotest.testable pp (fun a b -> Stdlib.compare a b = 0)

let graphs =
  [
    ("fig2", Gen.figure2, 1);
    ("twin", Gen.twin_cliques ~half:3 ~spoke_cap:4 ~intra_cap:4 ~cross_cap:1, 1);
    ("complete5", Gen.complete ~n:5 ~cap:2, 1);
    ( "random",
      Gen.random_bb_feasible ~n:5 ~f:1 ~p:0.8 ~min_cap:1 ~max_cap:3 ~seed:42,
      1 );
  ]

let test_gamma_star_jobs () =
  List.iter
    (fun (name, g, f) ->
      same_at_1_and_4 name
        (fun () -> Params.gamma_star g ~source:1 ~f)
        Alcotest.(check int))
    (("fig1", Gen.figure1a, 1) :: graphs)

let test_u_k_jobs () =
  (* Figure 1(b)'s worked example plus dispute-free budgets on the rest. *)
  same_at_1_and_4 "fig1b disputed"
    (fun () ->
      Params.u_k Gen.figure1b ~total_n:4 ~f:1
        ~disputes:[ Params.norm_dispute 3 2 ])
    Alcotest.(check int);
  List.iter
    (fun (name, g, f) ->
      same_at_1_and_4 name
        (fun () ->
          Params.u_k g ~total_n:(Digraph.num_vertices g) ~f ~disputes:[])
        Alcotest.(check int))
    graphs

let test_stars_jobs () =
  (* Figures 1(a)/2 have U_1 < 2 so [stars] rejects them (rho* = 0); their
     gamma*/U_k are still compared above. *)
  List.iter
    (fun (name, g, f) ->
      same_at_1_and_4 name
        (fun () -> Params.stars g ~source:1 ~f)
        (Alcotest.check star_t))
    (List.filter (fun (name, _, _) -> name <> "fig2") graphs)

let test_gamma_star_upper_jobs () =
  (* The sampled bound draws from a seeded RNG; the draw order is kept
     sequential ahead of the fan-out, so the value must not move either. *)
  List.iter
    (fun (name, g, f) ->
      same_at_1_and_4 name
        (fun () -> Params.gamma_star_upper g ~source:1 ~f ~samples:8 ~seed:9)
        Alcotest.(check int))
    graphs

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map keeps input order" `Quick test_pool_order;
          Alcotest.test_case "lowest-index exception" `Quick test_pool_exception;
          Alcotest.test_case "nested maps don't deadlock" `Quick test_pool_nested;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "gamma* jobs=1 vs 4" `Quick test_gamma_star_jobs;
          Alcotest.test_case "U_k jobs=1 vs 4" `Quick test_u_k_jobs;
          Alcotest.test_case "stars jobs=1 vs 4" `Quick test_stars_jobs;
          Alcotest.test_case "sampled gamma' jobs=1 vs 4" `Quick
            test_gamma_star_upper_jobs;
        ] );
    ]
