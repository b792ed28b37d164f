(* Tests for Matrix and Gauss over GF(2^8). *)

open Nab_field
open Nab_matrix

let f = Gf2p.create 8

let qtest ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let dim_gen = QCheck2.Gen.int_range 1 6
let elt_gen = QCheck2.Gen.int_bound 255

let matrix_gen rows cols =
  QCheck2.Gen.(
    map
      (fun l -> Matrix.init rows cols (fun i j -> List.nth l ((i * cols) + j)))
      (list_repeat (rows * cols) elt_gen))

let square_gen = QCheck2.Gen.(dim_gen >>= fun n -> pair (return n) (matrix_gen n n))

(* ---------- Matrix ---------- *)

let test_matrix_shape () =
  let a = Matrix.of_arrays [| [| 1; 2 |]; [| 3; 4 |]; [| 5; 6 |] |] in
  Alcotest.(check int) "rows" 3 (Matrix.rows a);
  Alcotest.(check int) "cols" 2 (Matrix.cols a);
  Alcotest.(check int) "get" 4 (Matrix.get a 1 1);
  Alcotest.(check (array int)) "row" [| 3; 4 |] (Matrix.row a 1);
  Alcotest.(check (array int)) "col" [| 2; 4; 6 |] (Matrix.col a 1);
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_arrays: ragged")
    (fun () -> ignore (Matrix.of_arrays [| [| 1 |]; [| 1; 2 |] |]))

let test_transpose_involution =
  qtest "transpose involution"
    QCheck2.Gen.(pair dim_gen dim_gen >>= fun (r, c) -> matrix_gen r c)
    (fun a -> Matrix.equal a (Matrix.transpose (Matrix.transpose a)))

let test_identity_neutral =
  qtest "A * I = I * A = A" square_gen (fun (n, a) ->
      let i = Matrix.identity n in
      Matrix.equal (Matrix.mul f a i) a && Matrix.equal (Matrix.mul f i a) a)

let test_mul_assoc =
  qtest ~count:60 "matrix mul associativity"
    QCheck2.Gen.(
      quad dim_gen dim_gen dim_gen dim_gen >>= fun (a, b, c, d) ->
      triple (matrix_gen a b) (matrix_gen b c) (matrix_gen c d))
    (fun (x, y, z) ->
      Matrix.equal (Matrix.mul f (Matrix.mul f x y) z) (Matrix.mul f x (Matrix.mul f y z)))

let test_vec_mul_consistent =
  qtest "vec_mul = row-matrix mul"
    QCheck2.Gen.(
      pair dim_gen dim_gen >>= fun (r, c) ->
      pair (matrix_gen 1 r) (matrix_gen r c))
    (fun (xrow, a) ->
      let x = Matrix.row xrow 0 in
      Matrix.row (Matrix.mul f xrow a) 0 = Matrix.vec_mul f x a)

let test_hcat_vcat () =
  let a = Matrix.of_arrays [| [| 1; 2 |] |] and b = Matrix.of_arrays [| [| 3 |] |] in
  let h = Matrix.hcat a b in
  Alcotest.(check (array int)) "hcat row" [| 1; 2; 3 |] (Matrix.row h 0);
  let sub = Matrix.sub_matrix h ~row:0 ~col:1 ~rows:1 ~cols:2 in
  Alcotest.(check (array int)) "sub" [| 2; 3 |] (Matrix.row sub 0)

(* ---------- Gauss ---------- *)

let test_rank_cases () =
  Alcotest.(check int) "identity rank" 4 (Gauss.rank f (Matrix.identity 4));
  Alcotest.(check int) "zero rank" 0 (Gauss.rank f (Matrix.create 3 5));
  let rank1 = Matrix.of_arrays [| [| 1; 2 |]; [| 2; 4 |] |] in
  (* Row 2 = 2 * row 1 over GF(2^8): 2*1=2, 2*2=4. *)
  Alcotest.(check int) "rank-1 matrix" 1 (Gauss.rank f rank1)

let test_det_invertibility =
  qtest "det <> 0 iff full rank" square_gen (fun (n, a) ->
      Gauss.det f a <> 0 = (Gauss.rank f a = n))

let test_det_multiplicative =
  qtest ~count:80 "det multiplicative"
    QCheck2.Gen.(dim_gen >>= fun n -> pair (matrix_gen n n) (matrix_gen n n))
    (fun (a, b) ->
      Gauss.det f (Matrix.mul f a b) = Gf2p.mul f (Gauss.det f a) (Gauss.det f b))

let test_inverse_roundtrip =
  qtest "inverse roundtrip" square_gen (fun (n, a) ->
      match Gauss.inverse f a with
      | None -> Gauss.det f a = 0
      | Some ai ->
          Matrix.equal (Matrix.mul f a ai) (Matrix.identity n)
          && Matrix.equal (Matrix.mul f ai a) (Matrix.identity n))

let test_solve_validates =
  qtest "solve gives a solution"
    QCheck2.Gen.(
      pair dim_gen dim_gen >>= fun (r, c) ->
      pair (matrix_gen r c) (matrix_gen r 1))
    (fun (a, bcol) ->
      let b = Matrix.col bcol 0 in
      match Gauss.solve f a b with
      | None ->
          (* Inconsistent: the augmented rank must exceed the plain rank. *)
          Gauss.rank f (Matrix.hcat a bcol) > Gauss.rank f a
      | Some x -> Matrix.mul_vec f a x = b)

let test_kernel_in_nullspace =
  qtest "kernel basis lies in null space"
    QCheck2.Gen.(pair dim_gen dim_gen >>= fun (r, c) -> matrix_gen r c)
    (fun a ->
      let basis = Gauss.kernel_basis f a in
      List.length basis = Matrix.cols a - Gauss.rank f a
      && List.for_all (fun x -> Array.for_all (( = ) 0) (Matrix.mul_vec f a x)) basis)

let test_rref_pivots () =
  let a = Matrix.of_arrays [| [| 0; 1; 2 |]; [| 0; 2; 4 |] |] in
  let r, pivots = Gauss.rref f a in
  Alcotest.(check (list int)) "pivot columns" [ 1 ] pivots;
  Alcotest.(check int) "pivot is 1" 1 (Matrix.get r 0 1)

let test_full_row_rank () =
  let wide = Matrix.of_arrays [| [| 1; 0; 1 |]; [| 0; 1; 1 |] |] in
  Alcotest.(check bool) "wide full rank" true (Gauss.has_invertible_submatrix f wide);
  let deficient = Matrix.of_arrays [| [| 1; 2; 3 |]; [| 2; 4; 6 |] |] in
  Alcotest.(check bool) "deficient" false (Gauss.has_invertible_submatrix f deficient)

let test_random_invertible_whp () =
  (* A random square matrix over GF(2^8) is invertible with probability
     prod (1 - 2^-8k) ~ 0.996; check the empirical rate is near that. *)
  let st = Random.State.make [| 3 |] in
  let trials = 500 in
  let ok = ref 0 in
  for _ = 1 to trials do
    if Gauss.is_invertible f (Matrix.random f 4 4 st) then incr ok
  done;
  Alcotest.(check bool) "invertible rate > 0.95" true (float_of_int !ok > 0.95 *. float_of_int trials)

let () =
  Alcotest.run "matrix"
    [
      ( "matrix",
        [
          Alcotest.test_case "shapes" `Quick test_matrix_shape;
          test_transpose_involution;
          test_identity_neutral;
          test_mul_assoc;
          test_vec_mul_consistent;
          Alcotest.test_case "hcat vcat sub select" `Quick test_hcat_vcat;
        ] );
      ( "gauss",
        [
          Alcotest.test_case "rank cases" `Quick test_rank_cases;
          test_det_invertibility;
          test_det_multiplicative;
          test_inverse_roundtrip;
          test_solve_validates;
          test_kernel_in_nullspace;
          Alcotest.test_case "rref pivots" `Quick test_rref_pivots;
          Alcotest.test_case "full row rank" `Quick test_full_row_rank;
          Alcotest.test_case "random invertible whp" `Quick test_random_invertible_whp;
        ] );
    ]
