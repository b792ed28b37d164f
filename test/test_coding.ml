(* Tests for Bitvec and Coding (Theorem 1 / Appendix C), plus the
   Equality Check module in isolation. *)

open Nab_graph
open Nab_net
open Nab_core
open Nab_matrix

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------- Bitvec ---------- *)

(* The bits of a value, MSB first, as 0/1 symbols. *)
let bits v = Bitvec.to_symbols v ~sym_bits:1

let test_bitvec_basics () =
  let v = Bitvec.create 10 in
  Alcotest.(check int) "length" 10 (Bitvec.length v);
  Alcotest.(check (array int)) "zero" (Array.make 10 0) (bits v);
  let w = Bitvec.init 10 (fun i -> i = 3) in
  Alcotest.(check (array int)) "bit 3 set" [| 0; 0; 0; 1; 0; 0; 0; 0; 0; 0 |] (bits w);
  Alcotest.(check bool) "differs from zero" false (Bitvec.equal v w)

let bv_gen bits =
  QCheck2.Gen.(
    int_range 0 100_000 >>= fun seed ->
    return (Bitvec.random bits (Random.State.make [| seed |])))

let test_split_concat_roundtrip =
  qtest "split/concat roundtrip" (bv_gen 48) (fun v ->
      List.for_all
        (fun parts -> Bitvec.equal v (Bitvec.concat (Bitvec.split v ~parts)))
        [ 1; 2; 3; 4; 6; 8; 12 ])

let test_symbols_roundtrip =
  qtest "to/of symbols roundtrip" (bv_gen 48) (fun v ->
      List.for_all
        (fun sym_bits ->
          let syms = Bitvec.to_symbols v ~sym_bits in
          Bitvec.equal v (Bitvec.of_symbols ~sym_bits syms)
          && Array.for_all (fun s -> s >= 0 && s < 1 lsl sym_bits) syms)
        [ 1; 2; 3; 4; 6; 8; 12; 16; 24; 48 ])

(* Bit-by-bit references for the blit fast paths. Building them with [init]
   also pins the padding-bits-zero invariant: [Bitvec.equal] is structural
   on the packed bytes, so a fast path leaving junk in the last byte fails
   these even when every addressable bit agrees. *)
let concat_ref parts =
  let total = List.fold_left (fun acc p -> acc + Bitvec.length p) 0 parts in
  let arr = Array.make total false in
  let pos = ref 0 in
  List.iter
    (fun p ->
      Array.iteri (fun i b -> arr.(!pos + i) <- b = 1) (bits p);
      pos := !pos + Bitvec.length p)
    parts;
  Bitvec.init total (fun i -> arr.(i))

let slice_ref v ~pos ~len =
  let b = bits v in
  Bitvec.init len (fun i -> b.(pos + i) = 1)

let test_concat_matches_reference =
  (* Mixed lengths so parts start both byte-aligned and mid-byte. *)
  qtest "concat = bit-by-bit reference"
    QCheck2.Gen.(
      list_size (int_range 0 6) (int_range 0 40) >>= fun lens ->
      int_range 0 100_000 >>= fun seed ->
      let st = Random.State.make [| seed |] in
      return (List.map (fun l -> Bitvec.random l st) lens))
    (fun parts -> Bitvec.equal (concat_ref parts) (Bitvec.concat parts))

let test_slice_matches_reference =
  qtest "slice = bit-by-bit reference"
    QCheck2.Gen.(
      int_range 0 80 >>= fun total ->
      int_range 0 total >>= fun pos ->
      int_range 0 (total - pos) >>= fun len ->
      int_range 0 100_000 >>= fun seed ->
      return (Bitvec.random total (Random.State.make [| seed |]), pos, len))
    (fun (v, pos, len) ->
      Bitvec.equal (slice_ref v ~pos ~len) (Bitvec.slice v ~pos ~len))

let test_slice_aligned_exact () =
  (* Deterministic probes of the byte-aligned fast path, including a
     non-multiple-of-8 length whose padding must come out clean. *)
  let v = Bitvec.of_string "\xA5\x3C\x7E" in
  List.iter
    (fun (pos, len) ->
      Alcotest.(check bool)
        (Printf.sprintf "slice pos=%d len=%d" pos len)
        true
        (Bitvec.equal (slice_ref v ~pos ~len) (Bitvec.slice v ~pos ~len)))
    [ (0, 24); (8, 16); (16, 8); (8, 11); (0, 3); (5, 13); (23, 1); (24, 0) ]

let test_slice_semantics () =
  let v = Bitvec.of_string "\xF0" in
  Alcotest.(check int) "8 bits" 8 (Bitvec.length v);
  Alcotest.(check int) "msb first" 1 (bits v).(0);
  Alcotest.(check int) "low half" 0 (bits v).(4);
  let hi = Bitvec.slice v ~pos:0 ~len:4 in
  Alcotest.(check (array int)) "hi nibble" [| 0xF |] (Bitvec.to_symbols hi ~sym_bits:4)

let test_pad_to () =
  let v = Bitvec.of_string "\xFF" in
  let p = Bitvec.pad_to v 12 in
  Alcotest.(check int) "padded length" 12 (Bitvec.length p);
  Alcotest.(check int) "original preserved" 1 (bits p).(7);
  Alcotest.(check int) "padding zero" 0 (bits p).(11);
  Alcotest.(check bool) "same when equal" true (Bitvec.equal v (Bitvec.pad_to v 8))

let test_bitvec_random_padding_clean () =
  (* Equality must be structural: random values with the same bits compare
     correctly because padding bits are cleared. *)
  let st = Random.State.make [| 1 |] in
  for _ = 1 to 50 do
    let v = Bitvec.random 13 st in
    let w = Bitvec.of_symbols ~sym_bits:13 (Bitvec.to_symbols v ~sym_bits:13) in
    Alcotest.(check bool) "roundtrip equal" true (Bitvec.equal v w)
  done

(* ---------- Coding ---------- *)

let k4 = Gen.complete ~n:4 ~cap:2
let omega4 = Params.omega_k k4 ~total_n:4 ~f:1 ~disputes:[]
let rho4 = Params.rho_k k4 ~total_n:4 ~f:1 ~disputes:[]

let test_generate_deterministic () =
  let a = Coding.generate k4 ~rho:rho4 ~m:8 ~seed:3 in
  let b = Coding.generate k4 ~rho:rho4 ~m:8 ~seed:3 in
  let c = Coding.generate k4 ~rho:rho4 ~m:8 ~seed:4 in
  List.iter
    (fun (s, d, _) ->
      Alcotest.(check bool) "same seed same matrix" true
        (Nab_matrix.Matrix.equal
           (Coding.matrix a ~edge:(s, d))
           (Coding.matrix b ~edge:(s, d))))
    (Digraph.edges k4);
  Alcotest.(check bool) "different seed differs" true
    (List.exists
       (fun (s, d, _) ->
         not
           (Nab_matrix.Matrix.equal
              (Coding.matrix a ~edge:(s, d))
              (Coding.matrix c ~edge:(s, d))))
       (Digraph.edges k4))

let test_matrix_shape () =
  let c = Coding.generate k4 ~rho:rho4 ~m:8 ~seed:3 in
  let m12 = Coding.matrix c ~edge:(1, 2) in
  Alcotest.(check int) "rho rows" rho4 (Nab_matrix.Matrix.rows m12);
  Alcotest.(check int) "z_e cols" 2 (Nab_matrix.Matrix.cols m12);
  Alcotest.check_raises "non-edge" Not_found (fun () ->
      ignore (Coding.matrix c ~edge:(1, 99)))

let test_encode_linearity =
  let c = Coding.generate k4 ~rho:rho4 ~m:8 ~seed:3 in
  let fld = Coding.field c in
  qtest "encode is linear"
    QCheck2.Gen.(
      pair
        (list_repeat rho4 (int_bound 255))
        (list_repeat rho4 (int_bound 255)))
    (fun (xs, ys) ->
      let x = Array.of_list xs and y = Array.of_list ys in
      let open Nab_field in
      let sum = Array.mapi (fun i xi -> Gf2p.add fld xi y.(i)) x in
      let ex = Coding.encode c ~edge:(1, 2) x in
      let ey = Coding.encode c ~edge:(1, 2) y in
      let esum = Coding.encode c ~edge:(1, 2) sum in
      Array.length ex = 2
      && esum = Array.mapi (fun i v -> Gf2p.add fld v ey.(i)) ex)

let test_encode_striping () =
  let c = Coding.generate k4 ~rho:rho4 ~m:8 ~seed:3 in
  (* Encoding 3 stripes = concatenating the three per-stripe encodings. *)
  let st = Random.State.make [| 9 |] in
  let stripes = Array.init 3 (fun _ -> Array.init rho4 (fun _ -> Random.State.int st 256)) in
  let x = Array.concat (Array.to_list stripes) in
  let all = Coding.encode c ~edge:(1, 2) x in
  Array.iteri
    (fun s stripe ->
      let part = Coding.encode c ~edge:(1, 2) stripe in
      Alcotest.(check (array int))
        (Printf.sprintf "stripe %d" s)
        part
        (Array.sub all (s * Array.length part) (Array.length part)))
    stripes

let test_check_own_value =
  let c = Coding.generate k4 ~rho:rho4 ~m:8 ~seed:3 in
  qtest "check accepts own encoding, rejects corrupt"
    QCheck2.Gen.(list_repeat rho4 (int_bound 255))
    (fun xs ->
      let x = Array.of_list xs in
      let y = Coding.encode c ~edge:(1, 2) x in
      let corrupt = Array.copy y in
      corrupt.(0) <- corrupt.(0) lxor 1;
      Coding.check c ~edge:(1, 2) ~x ~received:y
      && (not (Coding.check c ~edge:(1, 2) ~x ~received:corrupt))
      && not (Coding.check c ~edge:(1, 2) ~x ~received:(Array.sub y 0 1)))

let test_expanded_matrix_shape () =
  let c = Coding.generate k4 ~rho:rho4 ~m:8 ~seed:3 in
  let h = Digraph.induced k4 (List.hd omega4) in
  let ch = Coding.expanded_matrix c ~h in
  Alcotest.(check int) "rows = (|H|-1) rho" ((3 - 1) * rho4) (Nab_matrix.Matrix.rows ch);
  Alcotest.(check int) "cols = sum of caps" (Digraph.total_capacity h)
    (Nab_matrix.Matrix.cols ch)

let test_generate_correct_is_correct () =
  let c, attempts = Coding.generate_correct k4 ~omega:omega4 ~rho:rho4 ~m:8 ~seed:1 () in
  Alcotest.(check bool) "verified" true (Coding.is_correct c ~g:k4 ~omega:omega4);
  Alcotest.(check bool) "few attempts" true (attempts <= 3)

(* C_H as it was built before the one-pass assembly: one [Matrix.init] per
   edge, concatenated left to right with [Matrix.hcat]. *)
let reference_expanded_matrix c ~h =
  let rho = Coding.rho c in
  let verts = Digraph.vertices h in
  let nh = List.length verts in
  let reference = List.nth verts (nh - 1) in
  let block_index =
    let tbl = Hashtbl.create nh in
    List.iteri (fun i v -> if v <> reference then Hashtbl.add tbl v i) verts;
    tbl
  in
  let nblocks = nh - 1 in
  let expand (i, j) ce =
    let rows = nblocks * rho and cols = Matrix.cols ce in
    Matrix.init rows cols (fun r c ->
        let block = r / rho and within = r mod rho in
        let hit v = v <> reference && Hashtbl.find block_index v = block in
        if hit i || hit j then Matrix.get ce within c else 0)
  in
  List.fold_left Matrix.hcat
    (Matrix.create (nblocks * rho) 0)
    (List.map (fun (s, d, _) -> expand (s, d) (Coding.matrix c ~edge:(s, d))) (Digraph.edges h))

(* [Coding.generate_correct] over the reference C_H: [None] when every
   attempt fails. *)
let reference_generate_correct g ~omega ~rho ~m ~seed =
  let rec go attempt =
    if attempt > 64 then None
    else begin
      let c = Coding.generate g ~rho ~m ~seed:(seed + (attempt * 7919)) in
      let ok vset =
        Gauss.has_invertible_submatrix (Coding.field c)
          (reference_expanded_matrix c ~h:(Digraph.induced g vset))
      in
      if List.for_all ok omega then Some (c, attempt) else go (attempt + 1)
    end
  in
  go 1

let same_matrices g a b =
  List.for_all
    (fun (s, d, _) -> Matrix.equal (Coding.matrix a ~edge:(s, d)) (Coding.matrix b ~edge:(s, d)))
    (Digraph.edges g)

(* [Some attempts] when [generate_correct] and the reference agree on the
   matrices and the attempt count, [None] when both give up; fails the test
   on any disagreement. *)
let generate_correct_agrees g ~omega ~rho ~m ~seed =
  let got =
    match Coding.generate_correct g ~omega ~rho ~m ~seed () with
    | r -> Some r
    | exception Failure _ -> None
  in
  match (got, reference_generate_correct g ~omega ~rho ~m ~seed) with
  | None, None -> None
  | Some (a, na), Some (b, nb) when na = nb && same_matrices g a b -> Some na
  | _ -> Alcotest.failf "generate_correct differs from the reference (m=%d seed=%d)" m seed

let test_expanded_matrix_matches_reference =
  qtest ~count:40 "C_H and generate_correct = reference"
    QCheck2.Gen.(
      let* f = int_range 1 2 in
      let* n = int_range ((3 * f) + 1) 9 in
      let* gseed = int_range 0 100_000 in
      let* m = oneofl [ 1; 8; 16 ] in
      let* seed = int_range 0 9999 in
      return (f, n, gseed, m, seed))
    (fun (f, n, gseed, m, seed) ->
      let g = Gen.random_bb_feasible ~n ~f ~p:0.85 ~min_cap:1 ~max_cap:4 ~seed:gseed in
      let omega = Params.omega_k g ~total_n:n ~f ~disputes:[] in
      let rho = max 1 (Params.rho_k g ~total_n:n ~f ~disputes:[]) in
      let c = Coding.generate g ~rho ~m ~seed in
      List.for_all
        (fun vset ->
          let h = Digraph.induced g vset in
          Matrix.equal (Coding.expanded_matrix c ~h) (reference_expanded_matrix c ~h))
        omega
      &&
      (ignore (generate_correct_agrees g ~omega ~rho ~m ~seed : int option);
       true))

(* At m = 1 most draws are rank deficient, so the retry path of
   [generate_correct] is exercised against the reference too. *)
let test_generate_correct_retries_match () =
  let attempts =
    List.filter_map
      (fun seed -> generate_correct_agrees k4 ~omega:omega4 ~rho:rho4 ~m:1 ~seed)
      (List.init 20 Fun.id)
  in
  Alcotest.(check bool) "some m=1 draw needed a retry" true (List.exists (fun a -> a > 1) attempts)

(* The (EC) property end-to-end: with verified-correct matrices, whenever the
   values of a candidate fault-free subgraph H differ, some check inside H
   fails. Exhaustive over single-symbol differences, randomised otherwise. *)
let test_ec_property_detects_differences () =
  let c, _ = Coding.generate_correct k4 ~omega:omega4 ~rho:rho4 ~m:8 ~seed:1 () in
  let st = Random.State.make [| 77 |] in
  for _ = 1 to 200 do
    let values = Hashtbl.create 4 in
    List.iter
      (fun v -> Hashtbl.replace values v (Array.init rho4 (fun _ -> Random.State.int st 256)))
      (Digraph.vertices k4);
    (* Force at least two nodes to differ. *)
    let all_equal =
      let v1 = Hashtbl.find values 1 in
      List.for_all (fun v -> Hashtbl.find values v = v1) (Digraph.vertices k4)
    in
    if not all_equal then begin
      (* In every H of Omega whose members are not all equal, a check must
         fail on some edge of H. *)
      List.iter
        (fun hset ->
          let h = Digraph.induced k4 hset in
          let members = Digraph.vertices h in
          let v0 = Hashtbl.find values (List.hd members) in
          let h_differs =
            List.exists (fun v -> Hashtbl.find values v <> v0) members
          in
          if h_differs then begin
            let some_check_fails =
              List.exists
                (fun (i, j, _) ->
                  let yi = Coding.encode c ~edge:(i, j) (Hashtbl.find values i) in
                  not (Coding.check c ~edge:(i, j) ~x:(Hashtbl.find values j) ~received:yi))
                (Digraph.edges h)
            in
            Alcotest.(check bool) "difference detected inside H" true some_check_fails
          end)
        omega4
    end
  done

(* The (EC) property on random feasible networks, end to end: verified
   matrices detect any value disagreement among each candidate fault-free
   subgraph. *)
let test_ec_property_random_graphs =
  qtest ~count:15 "(EC) on random networks"
    (QCheck2.Gen.int_range 0 300)
    (fun gseed ->
      let g = Gen.random_bb_feasible ~n:5 ~f:1 ~p:0.8 ~min_cap:1 ~max_cap:3 ~seed:gseed in
      let omega = Params.omega_k g ~total_n:5 ~f:1 ~disputes:[] in
      let rho = Params.rho_k g ~total_n:5 ~f:1 ~disputes:[] in
      rho < 1
      ||
      let c, _ = Coding.generate_correct g ~omega ~rho ~m:8 ~seed:gseed () in
      let st = Random.State.make [| gseed; 17 |] in
      List.for_all
        (fun _ ->
          let values = Hashtbl.create 8 in
          List.iter
            (fun v ->
              Hashtbl.replace values v (Array.init rho (fun _ -> Random.State.int st 256)))
            (Digraph.vertices g);
          List.for_all
            (fun hset ->
              let h = Digraph.induced g hset in
              let members = Digraph.vertices h in
              let v0 = Hashtbl.find values (List.hd members) in
              let differs = List.exists (fun v -> Hashtbl.find values v <> v0) members in
              (not differs)
              || List.exists
                   (fun (i, j, _) ->
                     let yi = Coding.encode c ~edge:(i, j) (Hashtbl.find values i) in
                     not
                       (Coding.check c ~edge:(i, j) ~x:(Hashtbl.find values j)
                          ~received:yi))
                   (Digraph.edges h))
            omega)
        (List.init 10 Fun.id))

(* Negative control: a rank-deficient C_H has a blind spot. Construct values
   from a left-kernel vector of C_H: they differ, yet every check inside H
   passes — exactly the failure Theorem 1 bounds and the verification step
   excludes. Demonstrates the rank condition is the precise boundary. *)
let test_incorrect_matrices_have_blind_spot () =
  (* Hunt for an incorrect matrix set at m = 1 (failure probability is high
     there). *)
  let rec find seed =
    if seed > 2000 then None
    else begin
      let c = Coding.generate k4 ~rho:rho4 ~m:1 ~seed in
      let bad =
        List.find_opt (fun hset -> not (Coding.correct_for c ~h:(Digraph.induced k4 hset))) omega4
      in
      match bad with Some hset -> Some (c, hset) | None -> find (seed + 1)
    end
  in
  match find 1 with
  | None -> Alcotest.fail "no incorrect matrix set found at m=1 in 2000 draws"
  | Some (c, hset) ->
      let h = Digraph.induced k4 hset in
      let ch = Coding.expanded_matrix c ~h in
      let f1 = Coding.field c in
      (* Left kernel of C_H = kernel of its transpose. *)
      let kernel = Nab_matrix.Gauss.kernel_basis f1 (Nab_matrix.Matrix.transpose ch) in
      (match kernel with
      | [] -> Alcotest.fail "rank-deficient C_H must have a left-kernel vector"
      | dh :: _ ->
          (* D_H = [D_1 .. D_(n-f-1)], each D_i of rho symbols; the reference
             node (largest in H) holds zero. *)
          let members = Digraph.vertices h in
          let reference = List.nth members (List.length members - 1) in
          let non_ref = List.filter (fun v -> v <> reference) members in
          let value_of = Hashtbl.create 4 in
          Hashtbl.replace value_of reference (Array.make rho4 0);
          List.iteri
            (fun i v -> Hashtbl.replace value_of v (Array.sub dh (i * rho4) rho4))
            non_ref;
          let values_differ =
            List.exists
              (fun v -> Hashtbl.find value_of v <> Hashtbl.find value_of reference)
              non_ref
          in
          Alcotest.(check bool) "kernel values differ" true values_differ;
          (* Every check inside H passes: the blind spot. *)
          List.iter
            (fun (i, j, _) ->
              let yi = Coding.encode c ~edge:(i, j) (Hashtbl.find value_of i) in
              Alcotest.(check bool)
                (Printf.sprintf "check on (%d,%d) blind" i j)
                true
                (Coding.check c ~edge:(i, j) ~x:(Hashtbl.find value_of j) ~received:yi))
            (Digraph.edges h))

let test_failure_bound () =
  (* Monotone decreasing in m, and matches the Theorem 1 formula. *)
  let b8 = Coding.failure_bound ~n:4 ~f:1 ~rho:4 ~m:8 in
  let b16 = Coding.failure_bound ~n:4 ~f:1 ~rho:4 ~m:16 in
  Alcotest.(check bool) "monotone" true (b16 < b8);
  (* C(4,3) * (4-1-1) * 4 / 2^8 = 4 * 2 * 4 / 256 = 0.125 *)
  Alcotest.(check (float 1e-9)) "formula" 0.125 b8;
  Alcotest.(check (float 1e-9)) "caps at 1" 1.0 (Coding.failure_bound ~n:4 ~f:1 ~rho:4 ~m:1)

(* Theorem 1 empirically: the fraction of random matrix sets that are NOT
   correct is at most the bound (within statistical noise). *)
let test_theorem1_empirical () =
  List.iter
    (fun m ->
      let trials = 300 in
      let failures = ref 0 in
      for seed = 1 to trials do
        let c = Coding.generate k4 ~rho:rho4 ~m ~seed in
        if not (Coding.is_correct c ~g:k4 ~omega:omega4) then incr failures
      done;
      let rate = float_of_int !failures /. float_of_int trials in
      let bound = Coding.failure_bound ~n:4 ~f:1 ~rho:rho4 ~m in
      (* Allow generous statistical slack: rate <= bound + 3 sigma + 2%. *)
      let sigma = sqrt (bound *. (1.0 -. bound) /. float_of_int trials) in
      Alcotest.(check bool)
        (Printf.sprintf "m=%d rate %.3f <= bound %.3f (+slack)" m rate bound)
        true
        (rate <= bound +. (3.0 *. sigma) +. 0.02))
    [ 4; 6; 8 ]

(* ---------- Equality check in isolation ---------- *)

let test_ec_no_mismatch_when_equal () =
  let c, _ = Coding.generate_correct k4 ~omega:omega4 ~rho:rho4 ~m:8 ~seed:1 () in
  let sim = Sim.create k4 ~bits:Packet.bits in
  let x = Array.init rho4 (fun i -> i + 1) in
  let flags =
    Equality_check.run ~net:(Sim.transport sim) ~graph:(Sim.graph sim) ~phase:"ec" ~coding:c ~values:(fun _ -> x)
      ~faulty:Vset.empty ()
  in
  List.iter (fun (v, f) -> Alcotest.(check bool) (Printf.sprintf "node %d" v) false f) flags;
  (* Timing: each link carries z_e syms * 8 bits / cap z_e -> 8 = L/rho. *)
  Alcotest.(check (float 1e-9)) "duration L/rho" 8.0 ((Sim.timing sim).Sim.wall)

let test_ec_detects_differing_values () =
  let c, _ = Coding.generate_correct k4 ~omega:omega4 ~rho:rho4 ~m:8 ~seed:1 () in
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 100 do
    let base = Array.init rho4 (fun _ -> Random.State.int st 256) in
    let other = Array.copy base in
    other.(Random.State.int st rho4) <- Random.State.int st 256;
    if other <> base then begin
      let odd = 1 + Random.State.int st 3 in
      let sim = Sim.create k4 ~bits:Packet.bits in
      let flags =
        Equality_check.run ~net:(Sim.transport sim) ~graph:(Sim.graph sim) ~phase:"ec" ~coding:c
          ~values:(fun v -> if v = odd then other else base)
          ~faulty:Vset.empty ()
      in
      Alcotest.(check bool) "someone flags" true (List.exists snd flags)
    end
  done

(* Paper-exact timing: the equality check takes exactly L/rho time units on
   any graph — every edge e carries z_e symbols per stripe, so bits/capacity
   is identical on every link (eq. 3). *)
let test_ec_duration_exact =
  qtest ~count:25 "equality check lasts exactly L/rho"
    (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 200) (QCheck2.Gen.int_range 1 3))
    (fun (gseed, stripes) ->
      let g = Gen.random_bb_feasible ~n:5 ~f:1 ~p:0.8 ~min_cap:1 ~max_cap:4 ~seed:gseed in
      let rho = Params.rho_k g ~total_n:5 ~f:1 ~disputes:[] in
      rho < 1
      ||
      let m = 8 in
      let omega = Params.omega_k g ~total_n:5 ~f:1 ~disputes:[] in
      let c, _ = Coding.generate_correct g ~omega ~rho ~m ~seed:gseed () in
      let st = Random.State.make [| gseed |] in
      let x = Array.init (stripes * rho) (fun _ -> Random.State.int st 256) in
      let sim = Sim.create g ~bits:Packet.bits in
      let (_ : (int * bool) list) =
        Equality_check.run ~net:(Sim.transport sim) ~graph:(Sim.graph sim) ~phase:"ec" ~coding:c ~values:(fun _ -> x)
          ~faulty:Vset.empty ()
      in
      let l = stripes * rho * m in
      Float.abs ((Sim.timing sim).Sim.wall -. (float_of_int l /. float_of_int rho)) < 1e-9)

(* Phase-1 per-hop cost never exceeds L/gamma on any graph (the packing is
   capacity-disjoint). *)
let test_phase1_hop_bound =
  qtest ~count:25 "phase-1 hop cost <= L/gamma"
    (QCheck2.Gen.int_range 0 200)
    (fun gseed ->
      let g = Gen.random_bb_feasible ~n:5 ~f:1 ~p:0.8 ~min_cap:1 ~max_cap:4 ~seed:gseed in
      let gamma = Params.gamma_k g ~source:1 in
      let trees = Arborescence.pack g ~root:1 ~k:gamma in
      let l = gamma * 24 in
      let value = Bitvec.random l (Random.State.make [| gseed |]) in
      let sim = Sim.create g ~bits:Packet.bits in
      let (_ : int -> Wire.payload option array) =
        Phase1.run ~net:(Sim.transport sim) ~phase:"p1" ~trees ~source:1 ~value ~faulty:Vset.empty ()
      in
      (Sim.timing sim).Sim.pipelined <= (float_of_int l /. float_of_int gamma) +. 1e-9)

let test_ec_faulty_cannot_frame_consistency () =
  (* A faulty node lying in EC triggers MISMATCH only at its own neighbours
     (it cannot tamper with honest-honest links). *)
  let c, _ = Coding.generate_correct k4 ~omega:omega4 ~rho:rho4 ~m:8 ~seed:1 () in
  let sim = Sim.create k4 ~bits:Packet.bits in
  let x = Array.init rho4 (fun i -> i * 3) in
  let adversary ~me:_ ~dst y =
    if dst = 2 then Array.map (fun s -> s lxor 1) y else y
  in
  let flags =
    Equality_check.run ~net:(Sim.transport sim) ~graph:(Sim.graph sim) ~phase:"ec" ~coding:c ~values:(fun _ -> x)
      ~faulty:(Vset.singleton 4) ~adversary ()
  in
  Alcotest.(check bool) "victim 2 flags" true (List.assoc 2 flags);
  Alcotest.(check bool) "bystander 3 does not" false (List.assoc 3 flags)

let () =
  Alcotest.run "coding"
    [
      ( "bitvec",
        [
          Alcotest.test_case "basics" `Quick test_bitvec_basics;
          test_split_concat_roundtrip;
          test_symbols_roundtrip;
          test_concat_matches_reference;
          test_slice_matches_reference;
          Alcotest.test_case "aligned slice probes" `Quick test_slice_aligned_exact;
          Alcotest.test_case "slice semantics" `Quick test_slice_semantics;
          Alcotest.test_case "pad_to" `Quick test_pad_to;
          Alcotest.test_case "random padding clean" `Quick
            test_bitvec_random_padding_clean;
        ] );
      ( "coding",
        [
          Alcotest.test_case "deterministic generation" `Quick test_generate_deterministic;
          Alcotest.test_case "matrix shape" `Quick test_matrix_shape;
          test_encode_linearity;
          Alcotest.test_case "striping" `Quick test_encode_striping;
          test_check_own_value;
          Alcotest.test_case "expanded matrix shape" `Quick test_expanded_matrix_shape;
          Alcotest.test_case "generate_correct" `Quick test_generate_correct_is_correct;
          Alcotest.test_case "(EC) property" `Quick test_ec_property_detects_differences;
          test_ec_property_random_graphs;
          Alcotest.test_case "incorrect matrices blind spot" `Quick
            test_incorrect_matrices_have_blind_spot;
          Alcotest.test_case "failure bound formula" `Quick test_failure_bound;
          Alcotest.test_case "theorem 1 empirical" `Slow test_theorem1_empirical;
          test_expanded_matrix_matches_reference;
          Alcotest.test_case "generate_correct retries = reference" `Quick
            test_generate_correct_retries_match;
        ] );
      ( "equality-check",
        [
          Alcotest.test_case "no mismatch when equal" `Quick test_ec_no_mismatch_when_equal;
          Alcotest.test_case "detects differences" `Quick test_ec_detects_differing_values;
          test_ec_duration_exact;
          test_phase1_hop_bound;
          Alcotest.test_case "locality of faults" `Quick
            test_ec_faulty_cannot_frame_consistency;
        ] );
    ]
