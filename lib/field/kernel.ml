(* Table-resolved fused row kernels over GF(2^m). See kernel.mli for the
   contract. The design constraint throughout: resolve every per-field
   indirection (atomics, variant matches, table option) once in [of_field],
   so the inner loops are plain array arithmetic the compiler can keep in
   registers.

   The tabled modes (m <= 16) use sentinel-extended log/exp tables so the
   inner loops carry no per-element zero branches at all: log'(0) is a
   sentinel S = 2*(2^m - 1) past every legitimate log value, and the exp
   table is extended with zeros over [S, 2S], so exp'(log'(a) + log'(b))
   is a*b for ALL operands including zero — one pure load chain per
   element. For m = 8 the exp table is a Bytes; for 9 <= m <= 16 it is an
   unboxed int16 bigarray (field elements fit 16 bits), which quarters
   the footprint of the m = 16 hot table versus a boxed-int array.

   The m > 16 path is 4-bit nibble-sliced: a multiply by a fixed scalar [a]
   becomes ceil(m/4) table lookups + xors over precomputed tables
   MT(j)(v) = a * v * x^(4j) mod poly, and a generic multiply becomes a
   16-entry table build plus a branch-free Horner over the nibbles of the
   other operand with a fixed 16-entry reduction table. Both replace the
   bit-at-a-time shift-reduce peasant loop, whose two data-dependent
   branches per bit dominate wide-field row work. *)

type mode =
  | Bytes8 of { exp8 : Bytes.t; log8 : int array }
      (* m = 8 fast path: byte-backed sentinel-extended exp table. *)
  | Tab of { exp : Gf2p.exp_table; log : int array }
      (* 9 <= m <= 16: log-domain loops over sentinel-extended tables
         (see header). log is an int array because the sentinel 2*(2^m-1)
         does not fit 16 bits at m = 16. *)
  | Raw of {
      taps : int; (* reduction poly, leading x^m term removed *)
      hi : int; (* 1 lsl (m - 1) *)
      msk : int; (* 2^m - 1 *)
      nt : int; (* nibble count: ceil(m / 4) *)
      red4 : int array; (* red4.(t) = t * x^m mod poly, t < 16 *)
      lowmask : int; (* 2^(m-4) - 1: bits that survive a shift-by-4 *)
      scratch : int array Domain.DLS.key;
          (* nt * 16 ints of per-domain scratch for the nibble product
             tables, so the resolved kernel stays shareable across Pool
             domains without the per-call [Array.make] the shift-table
             path used to pay (and without racing on one shared buffer). *)
    }
      (* m > 16: 4-bit nibble-sliced carry-less multiplication. *)

type t = { fld : Gf2p.t; m : int; mask : int; mode : mode }

let field k = k.fld
let degree k = k.m
let tabled k = match k.mode with Raw _ -> false | _ -> true

(* ------------------------------ stats ------------------------------ *)

type stats = { flops : int; symbols : int }

let flops_ctr = Atomic.make 0
let symbols_ctr = Atomic.make 0

let count ~flops ~symbols =
  ignore (Atomic.fetch_and_add flops_ctr flops);
  ignore (Atomic.fetch_and_add symbols_ctr symbols)

let stats () = { flops = Atomic.get flops_ctr; symbols = Atomic.get symbols_ctr }

let reset_stats () =
  Atomic.set flops_ctr 0;
  Atomic.set symbols_ctr 0

let diff_stats before after =
  { flops = after.flops - before.flops; symbols = after.symbols - before.symbols }

(* ---------------------- raw scalar multiplication ---------------------- *)

let raw_mul ~taps ~hi ~msk a b =
  let a = ref a and b = ref b and acc = ref 0 in
  while !b <> 0 do
    if !b land 1 = 1 then acc := !acc lxor !a;
    a := (if !a land hi <> 0 then ((!a lsl 1) land msk) lxor taps else !a lsl 1);
    b := !b lsr 1
  done;
  !acc

(* ------------------------- nibble-slice helpers -------------------------

   All values stay strictly below 2^m <= 2^61 and every shift is by at most
   4 after masking to m - 4 bits, so nothing ever overflows the 63-bit
   native int — including at the m = 61 boundary. *)

(* Fill tbl.(off..off+15) with a * v mod poly for v < 16. Three branch-free
   reduced doublings plus twelve xors. *)
let fill_nib16 ~taps ~msk ~m tbl off a =
  let xt v =
    let s = v lsl 1 in
    (s land msk) lxor (taps land - (s lsr m))
  in
  let a2 = xt a in
  let a4 = xt a2 in
  let a8 = xt a4 in
  Array.unsafe_set tbl off 0;
  Array.unsafe_set tbl (off + 1) a;
  Array.unsafe_set tbl (off + 2) a2;
  Array.unsafe_set tbl (off + 3) (a2 lxor a);
  Array.unsafe_set tbl (off + 4) a4;
  Array.unsafe_set tbl (off + 5) (a4 lxor a);
  Array.unsafe_set tbl (off + 6) (a4 lxor a2);
  Array.unsafe_set tbl (off + 7) (a4 lxor a2 lxor a);
  Array.unsafe_set tbl (off + 8) a8;
  Array.unsafe_set tbl (off + 9) (a8 lxor a);
  Array.unsafe_set tbl (off + 10) (a8 lxor a2);
  Array.unsafe_set tbl (off + 11) (a8 lxor a2 lxor a);
  Array.unsafe_set tbl (off + 12) (a8 lxor a4);
  Array.unsafe_set tbl (off + 13) (a8 lxor a4 lxor a);
  Array.unsafe_set tbl (off + 14) (a8 lxor a4 lxor a2);
  Array.unsafe_set tbl (off + 15) (a8 lxor a4 lxor a2 lxor a)

(* a * b with tbl.(0..15) already holding a's nibble products: branch-free
   Horner over b's nibbles, reducing the accumulator's shift-by-4 through
   the fixed [red4] table. *)
let nib_mul ~red4 ~lowmask ~m ~nt tbl b =
  let acc = ref 0 in
  for j = nt - 1 downto 0 do
    let a0 = !acc in
    acc :=
      ((a0 land lowmask) lsl 4)
      lxor Array.unsafe_get red4 (a0 lsr (m - 4))
      lxor Array.unsafe_get tbl ((b lsr (j * 4)) land 15)
  done;
  !acc

(* Full multi-table for a row-constant scalar: mt.(16*j + v) = a * v * x^(4j)
   mod poly, built by sliding the base table up four bits at a time. After
   this, an element multiply is one lookup + xor per nonzero nibble. *)
let fill_nib_tables ~taps ~msk ~red4 ~lowmask ~m ~nt mt a =
  fill_nib16 ~taps ~msk ~m mt 0 a;
  for j = 1 to nt - 1 do
    let p = (j - 1) * 16 and q = j * 16 in
    for v = 0 to 15 do
      let e = Array.unsafe_get mt (p + v) in
      Array.unsafe_set mt (q + v)
        (((e land lowmask) lsl 4) lxor Array.unsafe_get red4 (e lsr (m - 4)))
    done
  done

(* Below this row length the m-entry shift table (cheaper to fill, pricier
   per element) beats building the full nt*16 nibble tables. *)
let nib_cutover = 8

(* ---------------------------- resolution ---------------------------- *)

(* Memoized per (degree, reduction polynomial): [Gf2p.create] caches
   descriptors per degree, but [create_with_poly] mints fresh ones, and the
   resolved tables depend only on the pair. *)
let cache_lock = Mutex.create ()
let cache : (int * int, t) Hashtbl.t = Hashtbl.create 8

let resolve fld =
  let m = Gf2p.degree fld in
  let mask = (1 lsl m) - 1 in
  let mode =
    match Gf2p.tables fld with
    | Some (exp_t, log_t) ->
        (* [Gf2p.tables] are sentinel-extended already (see the header):
           the tabled modes share them rather than keep copies. *)
        if m = 8 then
          Bytes8
            {
              exp8 = Bytes.init (Bigarray.Array1.dim exp_t) (fun i -> Char.chr exp_t.{i});
              log8 = log_t;
            }
        else Tab { exp = exp_t; log = log_t }
    | None ->
        let taps = Gf2p.reduction_poly fld land mask in
        let hi = 1 lsl (m - 1) in
        let nt = (m + 3) / 4 in
        Raw
          {
            taps;
            hi;
            msk = mask;
            nt;
            (* t * x^m = t * (x^m mod poly) in the field, and taps is
               exactly x^m mod poly. *)
            red4 = Array.init 16 (fun t -> raw_mul ~taps ~hi ~msk:mask t taps);
            lowmask = (1 lsl (m - 4)) - 1;
            scratch = Domain.DLS.new_key (fun () -> Array.make (nt * 16) 0);
          }
  in
  { fld; m; mask; mode }

let of_field fld =
  let m = Gf2p.degree fld in
  let poly = Gf2p.reduction_poly fld in
  let key = (m, poly) in
  Mutex.lock cache_lock;
  match
    match Hashtbl.find_opt cache key with
    | Some k -> k
    | None ->
        (* Resolve against the canonical per-degree descriptor whenever the
           polynomial matches it, so kernels reached through repeatedly
           minted [Gf2p.create_with_poly] descriptors share the canonical
           descriptor (and its lazily-built tables) instead of pinning
           whichever minted copy arrived first. A genuinely non-default
           polynomial pins its first descriptor — documented in the mli. *)
        let canonical =
          let c = Gf2p.create m in
          if Gf2p.reduction_poly c = poly then c else fld
        in
        let k = resolve canonical in
        Hashtbl.add cache key k;
        k
  with
  | k ->
      Mutex.unlock cache_lock;
      k
  | exception e ->
      Mutex.unlock cache_lock;
      raise e

(* ------------------------- scalar operations ------------------------- *)

let add _ a b = a lxor b

let mul k a b =
  assert (a land lnot k.mask = 0 && b land lnot k.mask = 0);
  match k.mode with
  | Bytes8 { exp8; log8 } ->
      Char.code
        (Bytes.unsafe_get exp8
           (Array.unsafe_get log8 a + Array.unsafe_get log8 b))
  | Tab { exp; log } ->
      Bigarray.Array1.unsafe_get exp
        (Array.unsafe_get log a + Array.unsafe_get log b)
  | Raw { taps; msk; nt; red4; lowmask; scratch; _ } ->
      if a = 0 || b = 0 then 0
      else begin
        let tbl = Domain.DLS.get scratch in
        fill_nib16 ~taps ~msk ~m:k.m tbl 0 a;
        nib_mul ~red4 ~lowmask ~m:k.m ~nt tbl b
      end

let inv k a =
  if a = 0 then raise Division_by_zero;
  match k.mode with
  | Bytes8 { exp8; log8 } ->
      Char.code (Bytes.unsafe_get exp8 (255 - Array.unsafe_get log8 a))
  | Tab { exp; log } ->
      Bigarray.Array1.unsafe_get exp (k.mask - Array.unsafe_get log a)
  | Raw { taps; msk; nt; red4; lowmask; scratch; _ } ->
      (* a^(2^m - 2) by square-and-multiply on the nibble path. *)
      let m = k.m in
      let tbl = Domain.DLS.get scratch in
      let nmul a b =
        fill_nib16 ~taps ~msk ~m tbl 0 a;
        nib_mul ~red4 ~lowmask ~m ~nt tbl b
      in
      let rec go x e acc =
        if e = 0 then acc
        else
          let acc = if e land 1 = 1 then nmul acc x else acc in
          go (nmul x x) (e lsr 1) acc
      in
      go a (k.mask - 1) 1

let div k a b = mul k a (inv k b)
let muladd k acc a b = acc lxor mul k a b

(* Raw-mode short-row helper: with [a] fixed across a whole row, precompute
   a * x^j mod poly for j < m once, so each element multiply is one table
   lookup per set bit of the element instead of a full m-step shift-reduce
   chain. [tbl] must have length >= m. The nibble tables beat this for rows
   of [nib_cutover] elements and up; this survives for the short tails. *)
let fill_shift_tbl ~taps ~hi ~msk ~m tbl a =
  let v = ref a in
  for j = 0 to m - 1 do
    Array.unsafe_set tbl j !v;
    v := (if !v land hi <> 0 then ((!v lsl 1) land msk) lxor taps else !v lsl 1)
  done

let shift_mul tbl xi =
  let acc = ref 0 and b = ref xi and j = ref 0 in
  while !b <> 0 do
    if !b land 1 = 1 then acc := !acc lxor Array.unsafe_get tbl !j;
    incr j;
    b := !b lsr 1
  done;
  !acc

(* ------------------------- fused row kernels ------------------------- *)

let check_range name arr off len =
  if off < 0 || len < 0 || off + len > Array.length arr then
    invalid_arg (name ^ ": range out of bounds")

let axpy k ~a ~x ~xoff ~y ~yoff ~len =
  assert (a land lnot k.mask = 0);
  check_range "Kernel.axpy" x xoff len;
  check_range "Kernel.axpy" y yoff len;
  if a <> 0 then
    if a = 1 then begin
      (* pure XOR accumulation: no field multiplies issued *)
      count ~flops:0 ~symbols:(3 * len);
      for i = 0 to len - 1 do
        Array.unsafe_set y (yoff + i)
          (Array.unsafe_get y (yoff + i) lxor Array.unsafe_get x (xoff + i))
      done
    end
    else begin
      count ~flops:len ~symbols:(3 * len);
      match k.mode with
      | Bytes8 { exp8; log8 } ->
          (* Zero elements ride the sentinel zone of exp8 and xor in 0 —
             no per-element test. *)
          let la = Array.unsafe_get log8 a in
          for i = 0 to len - 1 do
            let xi = Array.unsafe_get x (xoff + i) in
            Array.unsafe_set y (yoff + i)
              (Array.unsafe_get y (yoff + i)
              lxor Char.code
                     (Bytes.unsafe_get exp8 (la + Array.unsafe_get log8 xi)))
          done
      | Tab { exp; log } ->
          let la = Array.unsafe_get log a in
          for i = 0 to len - 1 do
            let xi = Array.unsafe_get x (xoff + i) in
            Array.unsafe_set y (yoff + i)
              (Array.unsafe_get y (yoff + i)
              lxor Bigarray.Array1.unsafe_get exp (la + Array.unsafe_get log xi))
          done
      | Raw { taps; hi; msk; nt; red4; lowmask; scratch } ->
          let tbl = Domain.DLS.get scratch in
          if len < nib_cutover then begin
            fill_shift_tbl ~taps ~hi ~msk ~m:k.m tbl a;
            for i = 0 to len - 1 do
              let xi = Array.unsafe_get x (xoff + i) in
              if xi <> 0 then
                Array.unsafe_set y (yoff + i)
                  (Array.unsafe_get y (yoff + i) lxor shift_mul tbl xi)
            done
          end
          else begin
            fill_nib_tables ~taps ~msk ~red4 ~lowmask ~m:k.m ~nt tbl a;
            for i = 0 to len - 1 do
              let xi = Array.unsafe_get x (xoff + i) in
              if xi <> 0 then begin
                let v = ref xi and off = ref 0 and acc = ref 0 in
                while !v <> 0 do
                  acc := !acc lxor Array.unsafe_get tbl (!off lor (!v land 15));
                  off := !off + 16;
                  v := !v lsr 4
                done;
                Array.unsafe_set y (yoff + i) (Array.unsafe_get y (yoff + i) lxor !acc)
              end
            done
          end
    end

let axpy_row k ~a ~x ~y =
  let len = Array.length x in
  if Array.length y <> len then invalid_arg "Kernel.axpy_row: length mismatch";
  axpy k ~a ~x ~xoff:0 ~y ~yoff:0 ~len

let scal k ~a ~x ~off ~len =
  assert (a land lnot k.mask = 0);
  check_range "Kernel.scal" x off len;
  if a = 0 then begin
    (* a fill, not a multiply per element *)
    count ~flops:0 ~symbols:len;
    Array.fill x off len 0
  end
  else if a <> 1 then begin
    count ~flops:len ~symbols:(2 * len);
    match k.mode with
    | Bytes8 { exp8; log8 } ->
        (* Zero elements map through the sentinel zone back to 0, so the
           unconditional store is correct. *)
        let la = Array.unsafe_get log8 a in
        for i = 0 to len - 1 do
          let xi = Array.unsafe_get x (off + i) in
          Array.unsafe_set x (off + i)
            (Char.code
               (Bytes.unsafe_get exp8 (la + Array.unsafe_get log8 xi)))
        done
    | Tab { exp; log } ->
        let la = Array.unsafe_get log a in
        for i = 0 to len - 1 do
          let xi = Array.unsafe_get x (off + i) in
          Array.unsafe_set x (off + i)
            (Bigarray.Array1.unsafe_get exp (la + Array.unsafe_get log xi))
        done
    | Raw { taps; hi; msk; nt; red4; lowmask; scratch } ->
        let tbl = Domain.DLS.get scratch in
        if len < nib_cutover then begin
          fill_shift_tbl ~taps ~hi ~msk ~m:k.m tbl a;
          for i = 0 to len - 1 do
            let xi = Array.unsafe_get x (off + i) in
            if xi <> 0 then Array.unsafe_set x (off + i) (shift_mul tbl xi)
          done
        end
        else begin
          fill_nib_tables ~taps ~msk ~red4 ~lowmask ~m:k.m ~nt tbl a;
          for i = 0 to len - 1 do
            let xi = Array.unsafe_get x (off + i) in
            if xi <> 0 then begin
              let v = ref xi and toff = ref 0 and acc = ref 0 in
              while !v <> 0 do
                acc := !acc lxor Array.unsafe_get tbl (!toff lor (!v land 15));
                toff := !toff + 16;
                v := !v lsr 4
              done;
              Array.unsafe_set x (off + i) !acc
            end
          done
        end
  end

let scal_row k ~a ~x = scal k ~a ~x ~off:0 ~len:(Array.length x)

let dot k ~x ~xoff ~y ~yoff ~len =
  check_range "Kernel.dot" x xoff len;
  check_range "Kernel.dot" y yoff len;
  count ~flops:len ~symbols:(2 * len);
  let acc = ref 0 in
  (match k.mode with
  | Bytes8 { exp8; log8 } ->
      (* Pure load chain: a zero on either side lands in the sentinel
         zone of exp8 and contributes 0 to the accumulator. *)
      for i = 0 to len - 1 do
        let xi = Array.unsafe_get x (xoff + i) in
        let yi = Array.unsafe_get y (yoff + i) in
        acc :=
          !acc
          lxor Char.code
                 (Bytes.unsafe_get exp8
                    (Array.unsafe_get log8 xi + Array.unsafe_get log8 yi))
      done
  | Tab { exp; log } ->
      (* Two independent accumulator chains: each element is a three-load
         dependency (two logs, then exp), so interleaving two streams
         keeps more of those loads in flight. *)
      let acc2 = ref 0 in
      let half = len / 2 in
      for i = 0 to half - 1 do
        let i2 = 2 * i in
        let x0 = Array.unsafe_get x (xoff + i2) in
        let y0 = Array.unsafe_get y (yoff + i2) in
        let x1 = Array.unsafe_get x (xoff + i2 + 1) in
        let y1 = Array.unsafe_get y (yoff + i2 + 1) in
        acc :=
          !acc
          lxor Bigarray.Array1.unsafe_get exp
                 (Array.unsafe_get log x0 + Array.unsafe_get log y0);
        acc2 :=
          !acc2
          lxor Bigarray.Array1.unsafe_get exp
                 (Array.unsafe_get log x1 + Array.unsafe_get log y1)
      done;
      if len land 1 = 1 then begin
        let xi = Array.unsafe_get x (xoff + len - 1) in
        let yi = Array.unsafe_get y (yoff + len - 1) in
        acc :=
          !acc
          lxor Bigarray.Array1.unsafe_get exp
                 (Array.unsafe_get log xi + Array.unsafe_get log yi)
      end;
      acc := !acc lxor !acc2
  | Raw { taps; msk; nt; red4; lowmask; scratch; _ } ->
      (* Neither operand is row-constant, so build the 16-entry nibble
         table for x(i) and Horner over y(i): still branch-free per bit,
         unlike the peasant loop this replaced. *)
      let m = k.m in
      let tbl = Domain.DLS.get scratch in
      for i = 0 to len - 1 do
        let xi = Array.unsafe_get x (xoff + i) in
        let yi = Array.unsafe_get y (yoff + i) in
        if xi <> 0 && yi <> 0 then begin
          fill_nib16 ~taps ~msk ~m tbl 0 xi;
          acc := !acc lxor nib_mul ~red4 ~lowmask ~m ~nt tbl yi
        end
      done);
  !acc

let mul_row_matrix k ~x ~xoff ~rows ~b ~boff ~cols ~y ~yoff =
  check_range "Kernel.mul_row_matrix" x xoff rows;
  check_range "Kernel.mul_row_matrix" b boff (rows * cols);
  check_range "Kernel.mul_row_matrix" y yoff cols;
  for r = 0 to rows - 1 do
    let a = Array.unsafe_get x (xoff + r) in
    if a <> 0 then axpy k ~a ~x:b ~xoff:(boff + (r * cols)) ~y ~yoff ~len:cols
  done
