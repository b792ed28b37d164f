(* Micro-benchmarks of the fused GF(2^m) kernel layer
   (Nab_field.Kernel) against the pre-kernel scalar path, emitting a
   machine-readable BENCH_kernels.json so every PR has a perf trajectory
   to regress against.

   Usage (flags shared by every bench, see harness.ml):
     dune exec bench/kernels.exe                   # bench + BENCH_kernels.json
     dune exec bench/kernels.exe -- --out F.json   # choose the artifact path
     dune exec bench/kernels.exe -- --quick        # shorter timing windows
     dune exec bench/kernels.exe -- --check        # correctness-only smoke
                                                   # (differential vs the
                                                   # scalar path, no timing)
     dune exec bench/kernels.exe -- --verify-artifact F.json
                                                   # fail unless the artifact
                                                   # carries every required
                                                   # row (wide-m axpy/dot,
                                                   # 256x256 generation)

   The scalar reference implementations below are verbatim ports of the
   pre-kernel code (per-element Gf2p.mul with its per-call cache lookup,
   int array array workspaces) so the reported speedups measure exactly
   what the kernel layer bought. Timings are wall-clock and
   machine-dependent; the JSON is a trajectory artifact, not a test —
   `--check` is the CI gate and asserts correctness only. *)

open Nab_field
open Nab_matrix

(* ------------------------- scalar references ------------------------- *)

(* Pre-kernel axpy: y <- y + a*x one Gf2p.mul at a time. *)
let ref_axpy f ~a ~x ~y =
  Array.iteri (fun i xi -> y.(i) <- Gf2p.add f y.(i) (Gf2p.mul f a xi)) x

let ref_dot f ~x ~y =
  let acc = ref 0 in
  Array.iteri (fun i xi -> acc := Gf2p.add f !acc (Gf2p.mul f xi y.(i))) x;
  !acc

(* Pre-kernel Gauss (textbook row reduction on int array array), ported
   verbatim from the seed's lib/matrix/gauss.ml. *)
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
        Some
          (Matrix.sub_matrix (Matrix.of_arrays w) ~row:0 ~col:n ~rows:n ~cols:n)
      end
    end

  let rref f a =
    let w = Matrix.to_arrays a in
    let pivots = echelon f w in
    back_substitute f w pivots;
    (Matrix.of_arrays w, List.map snd pivots)

  let mul f a b =
    let ar = Matrix.rows a and ac = Matrix.cols a and bc = Matrix.cols b in
    let ad = Matrix.to_arrays a and bd = Matrix.to_arrays b in
    let c = Array.make_matrix ar bc 0 in
    for i = 0 to ar - 1 do
      for k = 0 to ac - 1 do
        let aik = ad.(i).(k) in
        if aik <> 0 then
          for j = 0 to bc - 1 do
            c.(i).(j) <- Gf2p.add f c.(i).(j) (Gf2p.mul f aik bd.(k).(j))
          done
      done
    done;
    Matrix.of_arrays c
end

type row = {
  name : string;
  m : int;
  size : int; (* row length / matrix dimension / generation size *)
  ns : float;
  ref_ns : float;
}

let speedup r = if r.ns > 0.0 then r.ref_ns /. r.ns else nan

(* ---------------------------- workloads ---------------------------- *)

let degrees = [ 8; 16; 32; 48; 61 ]
let axpy_len = 4096
let inv_dim = 64

let random_invertible fld dim st =
  let rec go () =
    let a = Matrix.random fld dim dim st in
    if Gauss.is_invertible fld a then a else go ()
  in
  go ()

let bench_axpy ~min_time m =
  let fld = Gf2p.create m in
  let k = Kernel.of_field fld in
  let st = Random.State.make [| 11; m |] in
  let x = Array.init axpy_len (fun _ -> Gf2p.random fld st) in
  let y = Array.init axpy_len (fun _ -> Gf2p.random fld st) in
  let a = Gf2p.random_nonzero fld st in
  let ns = 1e9 *. Harness.time_per_op ~min_time (fun () -> Kernel.axpy_row k ~a ~x ~y) in
  let ref_ns = 1e9 *. Harness.time_per_op ~min_time (fun () -> ref_axpy fld ~a ~x ~y) in
  { name = "axpy"; m; size = axpy_len; ns; ref_ns }

let bench_dot ~min_time m =
  let fld = Gf2p.create m in
  let k = Kernel.of_field fld in
  let st = Random.State.make [| 13; m |] in
  let x = Array.init axpy_len (fun _ -> Gf2p.random fld st) in
  let y = Array.init axpy_len (fun _ -> Gf2p.random fld st) in
  let ns =
    1e9
    *. Harness.time_per_op ~min_time (fun () ->
           Kernel.dot k ~x ~xoff:0 ~y ~yoff:0 ~len:axpy_len)
  in
  let ref_ns = 1e9 *. Harness.time_per_op ~min_time (fun () -> ref_dot fld ~x ~y) in
  { name = "dot"; m; size = axpy_len; ns; ref_ns }

let bench_inverse ~min_time m =
  let fld = Gf2p.create m in
  let st = Random.State.make [| 42; m |] in
  let a = random_invertible fld inv_dim st in
  let ns = 1e9 *. Harness.time_per_op ~min_time (fun () -> Gauss.inverse fld a) in
  let ref_ns = 1e9 *. Harness.time_per_op ~min_time (fun () -> Ref_gauss.inverse fld a) in
  { name = "inverse64"; m; size = inv_dim; ns; ref_ns }

(* One RLNC generation decode: invert the coefficient matrix, multiply the
   payload block — the per-node cost of Rlnc.broadcast's decoding step.
   Benched at the historical m=8 gamma=32 point and at the ROADMAP's
   256x256 wide-field generation (m=32, 256 payload symbols), which crosses
   several Gauss panels and is where nibble slicing + blocking pay off. *)
let bench_rlnc_decode ~min_time ~m ~gamma ~payload_syms =
  let fld = Gf2p.create m in
  let st = Random.State.make [| 17; m; gamma |] in
  let cmat = random_invertible fld gamma st in
  let pmat = Matrix.random fld gamma payload_syms st in
  let decode inverse mul () =
    match inverse fld cmat with
    | None -> assert false
    | Some ci -> ignore (Sys.opaque_identity (mul fld ci pmat))
  in
  let ns = 1e9 *. Harness.time_per_op ~min_time (decode Gauss.inverse Matrix.mul) in
  let ref_ns = 1e9 *. Harness.time_per_op ~min_time (decode Ref_gauss.inverse Ref_gauss.mul) in
  { name = "rlnc_decode"; m; size = gamma; ns; ref_ns }

(* ------------------------------ checks ------------------------------ *)

(* Differential correctness of every kernel primitive and its consumers
   against the scalar path, across tabled and raw degrees. Exits nonzero on
   the first mismatch. This (not the timings) is what CI runs. *)
let run_checks () =
  let check = Harness.check in
  let degrees = [ 1; 2; 3; 5; 8; 11; 16; 17; 20; 24; 32; 48; 61 ] in
  List.iter
    (fun m ->
      let fld = Gf2p.create m in
      let k = Kernel.of_field fld in
      let st = Random.State.make [| 1009; m |] in
      for trial = 1 to 20 do
        let tag = Printf.sprintf "m=%d trial=%d" m trial in
        (* Lengths up to 200 cross the kernels' short-row cutover in both
           directions and exercise multi-nibble-table rows. *)
        let len = 1 + Random.State.int st 200 in
        let x = Array.init len (fun _ -> Gf2p.random fld st) in
        let y = Array.init len (fun _ -> Gf2p.random fld st) in
        let a = Gf2p.random fld st in
        (* scalar ops *)
        let b = Gf2p.random fld st in
        check (tag ^ " mul") (Kernel.mul k a b = Gf2p.mul fld a b);
        if a <> 0 then check (tag ^ " inv") (Kernel.inv k a = Gf2p.inv fld a);
        (* axpy *)
        let y_k = Array.copy y in
        Kernel.axpy_row k ~a ~x ~y:y_k;
        let y_r = Array.copy y in
        ref_axpy fld ~a ~x ~y:y_r;
        check (tag ^ " axpy") (y_k = y_r);
        (* scal *)
        let x_k = Array.copy x in
        Kernel.scal_row k ~a ~x:x_k;
        check (tag ^ " scal") (x_k = Array.map (fun v -> Gf2p.mul fld a v) x);
        (* dot *)
        check (tag ^ " dot")
          (Kernel.dot k ~x ~xoff:0 ~y ~yoff:0 ~len = ref_dot fld ~x ~y);
        (* inverse round-trip *)
        let dim = 1 + Random.State.int st 8 in
        let mat = Matrix.random fld dim dim st in
        (match (Gauss.inverse fld mat, Ref_gauss.inverse fld mat) with
        | Some a, Some b -> check (tag ^ " inverse") (Matrix.equal a b)
        | None, None -> check (tag ^ " inverse") true
        | _ -> check (tag ^ " inverse") false);
        check (tag ^ " is_invertible")
          (Gauss.is_invertible fld mat = (Gauss.det fld mat <> 0))
      done)
    degrees;
  (* Blocked-vs-scalar Gauss on shapes spanning several 32-column panels
     (the small random matrices above never leave panel one), including
     rank-deficient systems built from duplicated rows so pivot columns
     skip. Both the reduced matrix and the pivot columns must match the
     textbook reference exactly. *)
  List.iter
    (fun m ->
      let fld = Gf2p.create m in
      let st = Random.State.make [| 2027; m |] in
      List.iter
        (fun (nr, nc, deficient) ->
          let tag = Printf.sprintf "gauss m=%d %dx%d%s" m nr nc
              (if deficient then " deficient" else "")
          in
          let mat =
            let a = Matrix.random fld nr nc st in
            if not deficient then a
            else begin
              (* copy some rows over others: rank <= nr - copies *)
              let w = Matrix.to_arrays a in
              w.(nr - 1) <- Array.copy w.(0);
              w.(nr / 2) <- Array.copy w.(1);
              Matrix.of_arrays w
            end
          in
          let got, got_piv = Gauss.rref fld mat in
          let want, want_piv = Ref_gauss.rref fld mat in
          check (tag ^ " rref") (Matrix.equal got want);
          check (tag ^ " pivots") (got_piv = want_piv))
        [ (40, 72, false); (40, 72, true); (48, 48, false); (33, 100, true) ])
    [ 8; 32; 61 ]

(* -------------------------- artifact verify -------------------------- *)

(* Structural gate over a committed (or freshly generated) artifact: CI
   fails if the row set ever regresses below the ROADMAP grid — axpy, dot
   and inverse at every m in [degrees], plus the 256x256 wide-field
   generation row. Presence-only (no timing thresholds), so the gate stays
   deterministic across machines. *)
let required_rows =
  let open Harness in
  let timed ~name row =
    get "name" Json.get_string row = Some name && get "speedup" Json.get_float row <> None
  in
  List.concat_map
    (fun m ->
      List.map
        (fun name ->
          row (Printf.sprintf "%s m=%d" name m) (fun r ->
              timed ~name r && get "m" Json.get_int r = Some m))
        [ "axpy"; "dot"; "inverse64" ])
    degrees
  @ [
      row "rlnc_decode size=256" (fun r ->
          timed ~name:"rlnc_decode" r && get "size" Json.get_int r = Some 256);
    ]

(* ------------------------------- main ------------------------------- *)

let sweep ~quick ~(write : Harness.writer) =
  let min_time = if quick then 0.02 else 0.2 in
  Kernel.reset_stats ();
  let rows =
    List.concat
      [
        List.map (bench_axpy ~min_time) degrees;
        List.map (bench_dot ~min_time) degrees;
        List.map (bench_inverse ~min_time) degrees;
        [
          bench_rlnc_decode ~min_time ~m:8 ~gamma:32 ~payload_syms:128;
          bench_rlnc_decode ~min_time ~m:32 ~gamma:256 ~payload_syms:256;
        ];
      ]
  in
  let stats = Kernel.stats () in
  Printf.printf "%-14s %4s %6s %14s %14s %9s\n" "benchmark" "m" "size"
    "kernel ns/op" "scalar ns/op" "speedup";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter
    (fun r ->
      Printf.printf "%-14s %4d %6d %14.1f %14.1f %8.2fx\n" r.name r.m r.size
        r.ns r.ref_ns (speedup r))
    rows;
  print_newline ();
  let open Nab_obs.Json in
  write
    ~config:
      [
        ("min_time_s", float min_time);
        ("axpy_len", Int axpy_len);
        ("inverse_dim", Int inv_dim);
      ]
    ~results:
      (List
         (List.map
            (fun r ->
              Obj
                [
                  ("name", Str r.name);
                  ("m", Int r.m);
                  ("size", Int r.size);
                  ("ns_per_op", float r.ns);
                  ("ref_ns_per_op", float r.ref_ns);
                  ("speedup", float (speedup r));
                ])
            rows))
    [
      ( "kernel_stats",
        Obj [ ("flops", Int stats.Kernel.flops); ("symbols", Int stats.Kernel.symbols) ] );
    ]

let () =
  Harness.run ~name:"kernels" ~wall_clock:true ~verify:required_rows ~check:run_checks
    sweep
