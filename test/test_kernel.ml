(* Differential tests of the fused GF(2^m) kernel layer: every primitive
   against the scalar Gf2p path, the rewritten Gauss against a verbatim
   copy of the pre-kernel textbook elimination (so the refactor provably
   changed no result, including implementation-defined choices like the
   arbitrary solution of an underdetermined solve), and a regression that
   Rlnc.broadcast decisions are unchanged for the committed seeds. *)

open Nab_field
open Nab_matrix
open Nab_graph
open Nab_core

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Tabled, byte-tabled and raw degrees all represented, up to the
   max_degree = 61 boundary where 1 lsl m nears native-int width. *)
let degrees = [ 1; 2; 3; 5; 8; 11; 16; 20; 24; 32; 48; 61 ]
let degree_gen = QCheck2.Gen.oneofl degrees

let elt_gen fld st = Gf2p.random fld st

let row_gen =
  QCheck2.Gen.(
    degree_gen >>= fun m ->
    int_range 0 48 >>= fun len ->
    make_primitive
      ~gen:(fun st ->
        let fld = Gf2p.create m in
        (m, Array.init len (fun _ -> elt_gen fld st), Array.init len (fun _ -> elt_gen fld st)))
      ~shrink:(fun _ -> Seq.empty))

(* ---------- scalar references (pre-kernel idiom) ---------- *)

let ref_axpy f ~a ~x ~y =
  Array.iteri (fun i xi -> y.(i) <- Gf2p.add f y.(i) (Gf2p.mul f a xi)) x

let ref_dot f ~x ~y =
  let acc = ref 0 in
  Array.iteri (fun i xi -> acc := Gf2p.add f !acc (Gf2p.mul f xi y.(i))) x;
  !acc

(* Verbatim copy of the seed's textbook Gauss (int array array workspace). *)
module Ref_gauss = struct
  let echelon f (w : int array array) =
    let nr = Array.length w in
    let nc = if nr = 0 then 0 else Array.length w.(0) in
    let pivots = ref [] in
    let r = ref 0 in
    let c = ref 0 in
    while !r < nr && !c < nc do
      let pr = ref (-1) in
      (try
         for i = !r to nr - 1 do
           if w.(i).(!c) <> 0 then begin
             pr := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !pr < 0 then incr c
      else begin
        if !pr <> !r then begin
          let tmp = w.(!pr) in
          w.(!pr) <- w.(!r);
          w.(!r) <- tmp
        end;
        let inv_pivot = Gf2p.inv f w.(!r).(!c) in
        for j = !c to nc - 1 do
          w.(!r).(j) <- Gf2p.mul f inv_pivot w.(!r).(j)
        done;
        for i = !r + 1 to nr - 1 do
          let factor = w.(i).(!c) in
          if factor <> 0 then
            for j = !c to nc - 1 do
              w.(i).(j) <- Gf2p.sub f w.(i).(j) (Gf2p.mul f factor w.(!r).(j))
            done
        done;
        pivots := (!r, !c) :: !pivots;
        incr r;
        incr c
      end
    done;
    List.rev !pivots

  let back_substitute f (w : int array array) pivots =
    let nc = if Array.length w = 0 then 0 else Array.length w.(0) in
    List.iter
      (fun (r, c) ->
        for i = 0 to r - 1 do
          let factor = w.(i).(c) in
          if factor <> 0 then
            for j = c to nc - 1 do
              w.(i).(j) <- Gf2p.sub f w.(i).(j) (Gf2p.mul f factor w.(r).(j))
            done
        done)
      pivots

  let rank f a = List.length (echelon f (Matrix.to_arrays a))

  let rref f a =
    let w = Matrix.to_arrays a in
    let pivots = echelon f w in
    back_substitute f w pivots;
    (Matrix.of_arrays w, List.map snd pivots)

  let inverse f a =
    let n = Matrix.rows a in
    if n <> Matrix.cols a then None
    else begin
      let aug = Matrix.hcat a (Matrix.identity n) in
      let w = Matrix.to_arrays aug in
      let pivots = echelon f w in
      if List.length (List.filter (fun (_, c) -> c < n) pivots) < n then None
      else begin
        back_substitute f w pivots;
        Some (Matrix.sub_matrix (Matrix.of_arrays w) ~row:0 ~col:n ~rows:n ~cols:n)
      end
    end

  let solve f a b =
    let aug = Matrix.hcat a (Matrix.init (Matrix.rows a) 1 (fun i _ -> b.(i))) in
    let w = Matrix.to_arrays aug in
    let pivots = echelon f w in
    let nc = Matrix.cols a in
    if List.exists (fun (_, c) -> c = nc) pivots then None
    else begin
      back_substitute f w pivots;
      let x = Array.make nc 0 in
      List.iter (fun (r, c) -> x.(c) <- w.(r).(nc)) pivots;
      Some x
    end

  let kernel_basis f a =
    let w = Matrix.to_arrays a in
    let pivots = echelon f w in
    back_substitute f w pivots;
    let nc = Matrix.cols a in
    let pivot_cols = List.map snd pivots in
    let free_cols =
      List.filter (fun c -> not (List.mem c pivot_cols)) (List.init nc Fun.id)
    in
    List.map
      (fun fc ->
        let x = Array.make nc 0 in
        x.(fc) <- 1;
        List.iter (fun (r, c) -> x.(c) <- w.(r).(fc)) pivots;
        x)
      free_cols
end

(* ---------- kernel primitives ---------- *)

let test_scalar_ops =
  qtest ~count:300 "kernel mul/inv/div/muladd = Gf2p"
    QCheck2.Gen.(
      degree_gen >>= fun m ->
      make_primitive
        ~gen:(fun st ->
          let fld = Gf2p.create m in
          (m, elt_gen fld st, elt_gen fld st))
        ~shrink:(fun _ -> Seq.empty))
    (fun (m, a, b) ->
      let fld = Gf2p.create m in
      let k = Kernel.of_field fld in
      Kernel.mul k a b = Gf2p.mul fld a b
      && Kernel.add k a b = Gf2p.add fld a b
      && Kernel.muladd k b a a = Gf2p.add fld b (Gf2p.mul fld a a)
      && (a = 0 || Kernel.inv k a = Gf2p.inv fld a)
      && (b = 0 || Kernel.div k a b = Gf2p.div fld a b))

let test_axpy =
  qtest "axpy = scalar axpy" row_gen (fun (m, x, y) ->
      let fld = Gf2p.create m in
      let k = Kernel.of_field fld in
      List.for_all
        (fun a ->
          let yk = Array.copy y and yr = Array.copy y in
          Kernel.axpy_row k ~a ~x ~y:yk;
          ref_axpy fld ~a ~x ~y:yr;
          yk = yr)
        [ 0; 1; (m * 37) land ((1 lsl m) - 1) ])

let test_axpy_aliased =
  qtest "axpy on disjoint ranges of one buffer" row_gen (fun (m, x, y) ->
      let fld = Gf2p.create m in
      let k = Kernel.of_field fld in
      let len = Array.length x in
      let a = 1 land ((1 lsl m) - 1) in
      (* one flat buffer holding both rows, as Gauss uses it *)
      let w = Array.append x y in
      Kernel.axpy k ~a ~x:w ~xoff:0 ~y:w ~yoff:len ~len;
      let yr = Array.copy y in
      ref_axpy fld ~a ~x ~y:yr;
      Array.sub w len len = yr && Array.sub w 0 len = x)

let test_scal =
  qtest "scal = scalar map-mul" row_gen (fun (m, x, _) ->
      let fld = Gf2p.create m in
      let k = Kernel.of_field fld in
      List.for_all
        (fun a ->
          let xk = Array.copy x in
          Kernel.scal_row k ~a ~x:xk;
          xk = Array.map (fun v -> Gf2p.mul fld a v) x)
        [ 0; 1; (m * 29) land ((1 lsl m) - 1) ])

let test_dot =
  qtest "dot = scalar dot" row_gen (fun (m, x, y) ->
      let fld = Gf2p.create m in
      let k = Kernel.of_field fld in
      Kernel.dot k ~x ~xoff:0 ~y ~yoff:0 ~len:(Array.length x) = ref_dot fld ~x ~y)

let test_mul_row_matrix =
  qtest ~count:60 "mul_row_matrix = vec_mul reference"
    QCheck2.Gen.(
      degree_gen >>= fun m ->
      int_range 1 6 >>= fun rows ->
      int_range 1 6 >>= fun cols ->
      make_primitive
        ~gen:(fun st ->
          let fld = Gf2p.create m in
          ( m,
            Array.init rows (fun _ -> elt_gen fld st),
            Matrix.init rows cols (fun _ _ -> elt_gen fld st) ))
        ~shrink:(fun _ -> Seq.empty))
    (fun (m, x, b) ->
      let fld = Gf2p.create m in
      let k = Kernel.of_field fld in
      let cols = Matrix.cols b in
      let y = Array.make cols 0 in
      Kernel.mul_row_matrix k ~x ~xoff:0 ~rows:(Array.length x) ~b:(Matrix.raw b)
        ~boff:0 ~cols ~y ~yoff:0;
      let expect = Array.make cols 0 in
      Array.iteri
        (fun i xi ->
          for j = 0 to cols - 1 do
            expect.(j) <- Gf2p.add fld expect.(j) (Gf2p.mul fld xi (Matrix.get b i j))
          done)
        x;
      y = expect)

let test_range_checks () =
  let k = Kernel.of_field (Gf2p.create 8) in
  let x = Array.make 4 1 and y = Array.make 4 1 in
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [
      (fun () -> Kernel.axpy k ~a:1 ~x ~xoff:2 ~y ~yoff:0 ~len:3);
      (fun () -> Kernel.axpy k ~a:1 ~x ~xoff:0 ~y ~yoff:(-1) ~len:2);
      (fun () -> Kernel.scal k ~a:2 ~x ~off:0 ~len:5);
      (fun () -> ignore (Kernel.dot k ~x ~xoff:3 ~y ~yoff:0 ~len:2));
    ]

let test_stats () =
  let k = Kernel.of_field (Gf2p.create 8) in
  let before = Kernel.stats () in
  let x = Array.make 32 3 and y = Array.make 32 5 in
  Kernel.axpy_row k ~a:7 ~x ~y;
  let d = Kernel.diff_stats before (Kernel.stats ()) in
  Alcotest.(check bool) "flops counted" true (d.Kernel.flops >= 32);
  Alcotest.(check bool) "symbols counted" true (d.Kernel.symbols >= 3 * 32)

(* Exact counter semantics: degenerate scalars issue no multiplies, so they
   must count zero flops (the a = 1 axpy is a XOR pass, the a = 0 scal is a
   fill, the a = 0 axpy is a no-op) while symbol traffic still counts. *)
let test_stats_exact () =
  let k = Kernel.of_field (Gf2p.create 8) in
  let x = Array.make 32 3 and y = Array.make 32 5 in
  let delta f =
    let before = Kernel.stats () in
    f ();
    Kernel.diff_stats before (Kernel.stats ())
  in
  let case name f flops symbols =
    let d = delta f in
    Alcotest.(check int) (name ^ " flops") flops d.Kernel.flops;
    Alcotest.(check int) (name ^ " symbols") symbols d.Kernel.symbols
  in
  case "axpy a=1" (fun () -> Kernel.axpy_row k ~a:1 ~x ~y) 0 (3 * 32);
  case "axpy a=0" (fun () -> Kernel.axpy_row k ~a:0 ~x ~y) 0 0;
  case "axpy a=7" (fun () -> Kernel.axpy_row k ~a:7 ~x ~y) 32 (3 * 32);
  case "scal a=0" (fun () -> Kernel.scal_row k ~a:0 ~x:(Array.copy x)) 0 32;
  case "scal a=1" (fun () -> Kernel.scal_row k ~a:1 ~x:(Array.copy x)) 0 0;
  case "scal a=5" (fun () -> Kernel.scal_row k ~a:5 ~x:(Array.copy x)) 32 (2 * 32);
  case "dot" (fun () -> ignore (Kernel.dot k ~x ~xoff:0 ~y ~yoff:0 ~len:32)) 32 (2 * 32)

(* The of_field memo is keyed by (degree, poly): repeatedly minted
   create_with_poly descriptors must all resolve to one kernel, and when
   the polynomial is the canonical one, Kernel.field must return the
   canonical Gf2p.create descriptor — not whichever minted copy arrived
   first. *)
let test_of_field_aliasing () =
  let m = 20 in
  let canonical = Gf2p.create m in
  let poly = Gf2p.reduction_poly canonical in
  let k0 = Kernel.of_field canonical in
  let k1 = Kernel.of_field (Gf2p.create_with_poly ~m ~poly) in
  let k2 = Kernel.of_field (Gf2p.create_with_poly ~m ~poly) in
  Alcotest.(check bool) "one kernel per (m, poly)" true (k0 == k1 && k1 == k2);
  Alcotest.(check bool)
    "field is the canonical descriptor" true
    (Kernel.field k1 == canonical);
  let wide = Gf2p.create 61 in
  let kw = Kernel.of_field (Gf2p.create_with_poly ~m:61 ~poly:(Gf2p.reduction_poly wide)) in
  Alcotest.(check bool) "wide field aliases too" true (Kernel.field kw == wide)

(* ---------- wide-m nibble path ---------- *)

(* Dedicated differential over the nibble-sliced raw path: every wide
   degree (including the max_degree = 61 boundary) on rows long enough to
   use the multi-table path and short enough to hit the shift-table
   cutover. *)
let test_wide_m =
  qtest ~count:200 "wide-m axpy/scal/dot/inv = Gf2p (24/32/48/61)"
    QCheck2.Gen.(
      oneofl [ 24; 32; 48; 61 ] >>= fun m ->
      int_range 0 40 >>= fun len ->
      make_primitive
        ~gen:(fun st ->
          let fld = Gf2p.create m in
          ( m,
            Array.init len (fun _ -> elt_gen fld st),
            Array.init len (fun _ -> elt_gen fld st),
            elt_gen fld st ))
        ~shrink:(fun _ -> Seq.empty))
    (fun (m, x, y, a) ->
      let fld = Gf2p.create m in
      let k = Kernel.of_field fld in
      let yk = Array.copy y and yr = Array.copy y in
      Kernel.axpy_row k ~a ~x ~y:yk;
      ref_axpy fld ~a ~x ~y:yr;
      yk = yr
      && (let xk = Array.copy x in
          Kernel.scal_row k ~a ~x:xk;
          xk = Array.map (fun v -> Gf2p.mul fld a v) x)
      && Kernel.dot k ~x ~xoff:0 ~y ~yoff:0 ~len:(Array.length x) = ref_dot fld ~x ~y
      && (a = 0 || Kernel.inv k a = Gf2p.inv fld a)
      && Array.for_all (fun v -> v = 0 || Kernel.mul k (Kernel.inv k v) v = 1) x)

(* Deterministic top-of-range products at m = 61: the Horner accumulator
   masks to m - 4 bits before shifting, so all-ones and high-bit operands
   must survive without native-int overflow. *)
let test_degree61_boundary () =
  let fld = Gf2p.create 61 in
  let k = Kernel.of_field fld in
  let msk = (1 lsl 61) - 1 in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int)
        (Printf.sprintf "mul %x %x" a b)
        (Gf2p.mul fld a b) (Kernel.mul k a b))
    [
      (msk, msk);
      (msk, 1);
      (1, msk);
      (1 lsl 60, 1 lsl 60);
      (msk, 2);
      ((1 lsl 60) lor 1, msk);
      (msk lxor (1 lsl 30), (1 lsl 60) lor 0xff);
    ];
  Alcotest.(check int) "inv roundtrip at mask" 1 (Kernel.mul k msk (Kernel.inv k msk))

(* ---------- Gauss differential ---------- *)

let square_gen =
  QCheck2.Gen.(
    degree_gen >>= fun m ->
    int_range 1 7 >>= fun n ->
    make_primitive
      ~gen:(fun st ->
        let fld = Gf2p.create m in
        (m, Matrix.init n n (fun _ _ -> elt_gen fld st)))
      ~shrink:(fun _ -> Seq.empty))

let rect_gen =
  QCheck2.Gen.(
    degree_gen >>= fun m ->
    int_range 1 6 >>= fun nr ->
    int_range 1 6 >>= fun nc ->
    make_primitive
      ~gen:(fun st ->
        let fld = Gf2p.create m in
        (m, Matrix.init nr nc (fun _ _ -> elt_gen fld st)))
      ~shrink:(fun _ -> Seq.empty))

let test_gauss_inverse =
  qtest ~count:120 "inverse = reference (incl. None cases)" square_gen
    (fun (m, a) ->
      let fld = Gf2p.create m in
      match (Gauss.inverse fld a, Ref_gauss.inverse fld a) with
      | Some x, Some y -> Matrix.equal x y
      | None, None -> true
      | _ -> false)

let test_gauss_rank_rref =
  qtest ~count:120 "rank/rref/kernel_basis = reference" rect_gen (fun (m, a) ->
      let fld = Gf2p.create m in
      let r1, p1 = Gauss.rref fld a in
      let r2, p2 = Ref_gauss.rref fld a in
      Gauss.rank fld a = Ref_gauss.rank fld a
      && Matrix.equal r1 r2 && p1 = p2
      && Gauss.kernel_basis fld a = Ref_gauss.kernel_basis fld a)

let test_gauss_solve =
  qtest ~count:120 "solve = reference (same arbitrary solution)"
    QCheck2.Gen.(
      degree_gen >>= fun m ->
      int_range 1 6 >>= fun nr ->
      int_range 1 6 >>= fun nc ->
      make_primitive
        ~gen:(fun st ->
          let fld = Gf2p.create m in
          ( m,
            Matrix.init nr nc (fun _ _ -> elt_gen fld st),
            Array.init nr (fun _ -> elt_gen fld st) ))
        ~shrink:(fun _ -> Seq.empty))
    (fun (m, a, b) ->
      let fld = Gf2p.create m in
      Gauss.solve fld a b = Ref_gauss.solve fld a b)

let test_is_invertible =
  qtest ~count:150 "is_invertible = (det <> 0), early-exit path" square_gen
    (fun (m, a) ->
      let fld = Gf2p.create m in
      Gauss.is_invertible fld a = (Gauss.det fld a <> 0))

(* Blocked-vs-unblocked identity at campaign scale: a 256x256 system spans
   eight 32-column panels and four 64-column trailing strips, so this
   exercises every blocking boundary. Pivot order and the reduced matrix
   must match the textbook reference exactly, on a full-rank system and on
   a rank-deficient one (duplicated rows force pivot-column skips across
   panel boundaries). *)
let test_gauss_blocked_256 () =
  let fld = Gf2p.create 8 in
  let st = Random.State.make [| 0xb10c; 256 |] in
  let full = Matrix.random fld 256 256 st in
  let deficient =
    let w = Matrix.to_arrays (Matrix.random fld 256 256 st) in
    w.(255) <- Array.copy w.(0);
    w.(128) <- Array.copy w.(7);
    w.(64) <- Array.copy w.(33);
    Matrix.of_arrays w
  in
  List.iter
    (fun (name, a) ->
      let r1, p1 = Gauss.rref fld a in
      let r2, p2 = Ref_gauss.rref fld a in
      Alcotest.(check bool) (name ^ " rref identical") true (Matrix.equal r1 r2);
      Alcotest.(check (list int)) (name ^ " pivot columns") p2 p1)
    [ ("full-rank 256x256", full); ("rank-deficient 256x256", deficient) ]

(* ---------- RLNC regression: committed-seed decisions unchanged ---------- *)

(* Fingerprints recorded from the pre-kernel implementation (rounds /
   header_bits / payload_bits / wall_time for the E9 networks and seeds).
   The kernel rewrite of insert/combine/decode must not change any of
   them, nor the decoded values. *)
let rlnc_cases =
  [
    ("k4", `K4, 3, 2, 1440, 3840, 352.0);
    ("fig2", `Fig2, 3, 2, 144, 1152, 288.0);
    ("chords7", `Chords7, 3, 3, 3744, 9984, 528.0);
    ("dumbbell", `Dumbbell, 5, 3, 5280, 14080, 528.0);
    ("twin", `Twin, 11, 2, 19584, 17408, 544.0);
  ]

let graph_of = function
  | `K4 -> Gen.complete ~n:4 ~cap:2
  | `Fig2 -> Gen.figure2
  | `Chords7 -> Gen.ring_with_chords ~n:7 ~cap:2 ~chord_cap:1
  | `Dumbbell -> Gen.dumbbell ~clique:3 ~clique_cap:4 ~bridge_cap:2
  | `Twin -> Gen.twin_cliques ~half:2 ~spoke_cap:8 ~intra_cap:8 ~cross_cap:1

let test_rlnc_regression () =
  List.iter
    (fun (name, gk, seed, rounds, header, payload, wall) ->
      let g = graph_of gk in
      let gamma = Params.gamma_k g ~source:1 in
      let m = 8 in
      let l = gamma * m * 16 in
      let value = Bitvec.random l (Random.State.make [| 7 |]) in
      let sim = Nab_net.Sim.create g ~bits:Nab_net.Packet.bits in
      let r = Rlnc.broadcast ~net:(Nab_net.Sim.transport sim) ~phase:"rlnc" ~source:1 ~value ~gamma ~m ~seed () in
      Alcotest.(check int) (name ^ " rounds") rounds r.Rlnc.rounds;
      Alcotest.(check int) (name ^ " header bits") header r.Rlnc.header_bits;
      Alcotest.(check int) (name ^ " payload bits") payload r.Rlnc.payload_bits;
      Alcotest.(check (float 0.0)) (name ^ " wall") wall r.Rlnc.wall_time;
      Alcotest.(check bool) (name ^ " all decoded") true r.Rlnc.all_decoded;
      List.iter
        (fun (v, d) ->
          match d with
          | Some d ->
              Alcotest.(check bool)
                (Printf.sprintf "%s node %d value" name v)
                true (Bitvec.equal d value)
          | None -> Alcotest.failf "%s node %d undecoded" name v)
        r.Rlnc.decoded)
    rlnc_cases

(* ---------- Matrix products through the kernel ---------- *)

let test_matrix_mul =
  qtest ~count:80 "Matrix.mul / vec_mul / mul_vec = scalar reference"
    QCheck2.Gen.(
      degree_gen >>= fun m ->
      int_range 1 5 >>= fun a ->
      int_range 1 5 >>= fun b ->
      int_range 1 5 >>= fun c ->
      make_primitive
        ~gen:(fun st ->
          let fld = Gf2p.create m in
          ( m,
            Matrix.init a b (fun _ _ -> elt_gen fld st),
            Matrix.init b c (fun _ _ -> elt_gen fld st) ))
        ~shrink:(fun _ -> Seq.empty))
    (fun (m, a, b) ->
      let fld = Gf2p.create m in
      let expect =
        Matrix.init (Matrix.rows a) (Matrix.cols b) (fun i j ->
            let acc = ref 0 in
            for k = 0 to Matrix.cols a - 1 do
              acc := Gf2p.add fld !acc (Gf2p.mul fld (Matrix.get a i k) (Matrix.get b k j))
            done;
            !acc)
      in
      Matrix.equal (Matrix.mul fld a b) expect
      && Matrix.vec_mul fld (Matrix.row (Matrix.identity (Matrix.rows a)) 0) a
         = Matrix.row a 0
      && Matrix.mul_vec fld b (Matrix.row (Matrix.identity (Matrix.cols b)) 0)
         = Matrix.col b 0)

let () =
  Alcotest.run "kernel"
    [
      ( "primitives",
        [
          test_scalar_ops;
          test_axpy;
          test_axpy_aliased;
          test_scal;
          test_dot;
          test_mul_row_matrix;
          test_wide_m;
          Alcotest.test_case "range checks" `Quick test_range_checks;
          Alcotest.test_case "stats counters" `Quick test_stats;
          Alcotest.test_case "stats exact semantics" `Quick test_stats_exact;
          Alcotest.test_case "degree-61 boundary" `Quick test_degree61_boundary;
          Alcotest.test_case "of_field aliasing" `Quick test_of_field_aliasing;
        ] );
      ( "gauss",
        [
          test_gauss_inverse;
          test_gauss_rank_rref;
          test_gauss_solve;
          test_is_invertible;
          Alcotest.test_case "blocked 256x256 identity" `Quick test_gauss_blocked_256;
        ] );
      ("consumers", [ test_matrix_mul ]);
      ( "rlnc",
        [ Alcotest.test_case "committed-seed decisions unchanged" `Quick test_rlnc_regression ] );
    ]
