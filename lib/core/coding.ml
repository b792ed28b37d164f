open Nab_field
open Nab_matrix
open Nab_graph

type t = {
  fld : Gf2p.t;
  ker : Kernel.t; (* resolved once: encode/check run on fused row kernels *)
  rho : int;
  matrices : (int * int, Matrix.t) Hashtbl.t;
}

let field t = t.fld
let rho t = t.rho

let matrix t ~edge =
  match Hashtbl.find_opt t.matrices edge with
  | Some m -> m
  | None -> raise Not_found

let generate g ~rho ~m ~seed =
  if rho < 1 then invalid_arg "Coding.generate: rho must be >= 1";
  let fld = Gf2p.create m in
  let st = Random.State.make [| seed; rho; m; 0x5eed |] in
  let matrices = Hashtbl.create 32 in
  (* Iterate edges in a canonical order so generation is deterministic. *)
  List.iter
    (fun (s, d, cap) -> Hashtbl.replace matrices (s, d) (Matrix.random fld rho cap st))
    (Digraph.edges g);
  { fld; ker = Kernel.of_field fld; rho; matrices }

let encode t ~edge x =
  let c = matrix t ~edge in
  let len = Array.length x in
  if len mod t.rho <> 0 then invalid_arg "Coding.encode: value length not a multiple of rho";
  let stripes = len / t.rho in
  let ze = Matrix.cols c in
  let craw = Matrix.raw c in
  let out = Array.make (stripes * ze) 0 in
  for s = 0 to stripes - 1 do
    (* stripe s of x times C_e, accumulated straight into the output slot —
       no per-stripe slicing or blitting *)
    Kernel.mul_row_matrix t.ker ~x ~xoff:(s * t.rho) ~rows:t.rho ~b:craw ~boff:0
      ~cols:ze ~y:out ~yoff:(s * ze)
  done;
  out

let check t ~edge ~x ~received =
  let c = matrix t ~edge in
  let len = Array.length x in
  if len mod t.rho <> 0 then invalid_arg "Coding.check: value length not a multiple of rho";
  let stripes = len / t.rho in
  let ze = Matrix.cols c in
  Array.length received = stripes * ze
  && begin
       (* Stripe at a time into one scratch row, stopping at the first
          mismatch — a faulty stripe costs rho * z_e multiplies, not a full
          re-encode plus an array allocation. *)
       let craw = Matrix.raw c in
       let scratch = Array.make ze 0 in
       let ok = ref true in
       let s = ref 0 in
       while !ok && !s < stripes do
         Array.fill scratch 0 ze 0;
         Kernel.mul_row_matrix t.ker ~x ~xoff:(!s * t.rho) ~rows:t.rho ~b:craw
           ~boff:0 ~cols:ze ~y:scratch ~yoff:0;
         let base = !s * ze in
         for j = 0 to ze - 1 do
           if scratch.(j) <> received.(base + j) then ok := false
         done;
         incr s
       done;
       !ok
     end

(* Appendix C: expand C_e (rho x z_e) into B_e ((|h|-1) * rho x z_e) and
   concatenate the B_e left to right into C_H. In characteristic 2 the -C_e
   blocks equal C_e, so each edge contributes its C_e at the block row of
   each non-reference endpoint: one allocation, one row blit per
   (endpoint, row of C_e), every other entry zero. *)
let expanded_matrix t ~h =
  let verts = Digraph.vertices h in
  let nh = List.length verts in
  if nh < 2 then invalid_arg "Coding.expanded_matrix: subgraph too small";
  let reference = List.nth verts (nh - 1) in
  let block_index =
    let tbl = Hashtbl.create nh in
    List.iteri (fun i v -> if v <> reference then Hashtbl.add tbl v i) verts;
    tbl
  in
  let blocks = List.map (fun (s, d, _) -> (s, d, matrix t ~edge:(s, d))) (Digraph.edges h) in
  let rows = (nh - 1) * t.rho in
  let cols = List.fold_left (fun acc (_, _, ce) -> acc + Matrix.cols ce) 0 blocks in
  let data = Array.make (rows * cols) 0 in
  let off = ref 0 in
  List.iter
    (fun (i, j, ce) ->
      let ze = Matrix.cols ce and craw = Matrix.raw ce in
      List.iter
        (fun v ->
          if v <> reference then begin
            let base = Hashtbl.find block_index v * t.rho in
            for within = 0 to t.rho - 1 do
              Array.blit craw (within * ze) data (((base + within) * cols) + !off) ze
            done
          end)
        [ i; j ];
      off := !off + ze)
    blocks;
  Matrix.of_raw ~rows ~cols data

let correct_for t ~h =
  Gauss.has_invertible_submatrix t.fld (expanded_matrix t ~h)

let is_correct t ~g ~omega =
  List.for_all (fun vset -> correct_for t ~h:(Digraph.induced g vset)) omega

let max_attempts = 64

let generate_correct g ~omega ~rho ~m ~seed () =
  let rec go attempt =
    if attempt > max_attempts then
      failwith "Coding.generate_correct: exhausted attempts (field too small?)"
    else begin
      let t = generate g ~rho ~m ~seed:(seed + (attempt * 7919)) in
      if is_correct t ~g ~omega then (t, attempt) else go (attempt + 1)
    end
  in
  go 1

let binomial n k =
  let k = min k (n - k) in
  if k < 0 then 0.0
  else begin
    let acc = ref 1.0 in
    for i = 1 to k do
      acc := !acc *. float_of_int (n - k + i) /. float_of_int i
    done;
    !acc
  end

let failure_bound ~n ~f ~rho ~m =
  let b = binomial n (n - f) *. float_of_int ((n - f - 1) * rho) *. (2.0 ** float_of_int (-m)) in
  Float.min 1.0 b
