type exp_table = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  m : int;
  taps : int; (* reduction polynomial with the leading x^m term removed *)
  mask : int; (* 2^m - 1 *)
  full : int; (* reduction polynomial including the leading term *)
  tables : (exp_table * int array) option Atomic.t;
      (* lazily-built (exp, log) tables for m <= table_degree_limit, laid
         out as in [build_tables].
         An atomic, so a racing domain either sees [None] (and falls into
         the mutex-guarded build below) or a fully-built value:
         [Atomic.set] publishes the array contents, a plain mutable field
         would not. *)
}

let table_degree_limit = 16

exception Invalid_degree of int

let max_degree = 61
let one = 1
let degree f = f.m
let reduction_poly f = f.full
let is_valid f x = x >= 0 && x <= f.mask
let add _ a b = a lxor b
let sub = add

(* ------- raw GF(2)[x] arithmetic on ints (coefficients are bits) ------- *)

let poly_degree p =
  if p = 0 then -1
  else begin
    let d = ref 0 and q = ref (p lsr 1) in
    while !q <> 0 do
      incr d;
      q := !q lsr 1
    done;
    !d
  end

let poly_mod a b =
  assert (b <> 0);
  let db = poly_degree b in
  let a = ref a in
  while poly_degree !a >= db do
    a := !a lxor (b lsl (poly_degree !a - db))
  done;
  !a

let poly_gcd a b =
  let rec go a b = if b = 0 then a else go b (poly_mod a b) in
  go a b

(* Product in GF(2)[x] / (full poly of degree m, taps given): peasant
   multiplication with reduction at every shift, so values never exceed m
   bits and no intermediate overflows the native int. *)
let mul_with ~m ~taps a b =
  let hi = 1 lsl (m - 1) in
  let mask = (1 lsl m) - 1 in
  let rec go a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 = 1 then acc lxor a else acc in
      let a = if a land hi <> 0 then ((a lsl 1) land mask) lxor taps else a lsl 1 in
      go a (b lsr 1) acc
  in
  go a b 0

(* Rabin's test: f of degree m is irreducible over GF(2) iff
   x^(2^m) = x (mod f) and gcd(x^(2^(m/q)) - x, f) = 1 for each prime q | m. *)
let irreducible ~m ~poly =
  if poly_degree poly <> m then false
  else if m = 1 then true (* x and x + 1 *)
  else begin
    let taps = poly land ((1 lsl m) - 1) in
    let mulm = mul_with ~m ~taps in
    let x = 2 in
    let frobenius_iter k =
      (* x^(2^k) mod f *)
      let h = ref x in
      for _ = 1 to k do
        h := mulm !h !h
      done;
      !h
    in
    frobenius_iter m = x
    && List.for_all
         (fun q ->
           let h = frobenius_iter (m / q) in
           poly_gcd (h lxor x) poly = 1)
         (Numth.prime_divisors m)
  end

let find_irreducible m =
  let rec go taps =
    if taps > (1 lsl m) - 1 then assert false (* irreducibles of every degree exist *)
    else
      let poly = (1 lsl m) lor taps in
      if irreducible ~m ~poly then poly else go (taps + 2)
  in
  go 1

(* ------------------------------ fields ------------------------------ *)

(* One mutex guards every lazily-built cache of the module: the descriptor
   table below, and each descriptor's log-table build. The hot
   paths ([mul], [inv]) never take it — they only do an [Atomic.get] — so
   the double-checked slow path is the sole contention point, and it runs at
   most once per (field, cache) pair. *)
let cache_lock = Mutex.create ()

let with_cache_lock f =
  Mutex.lock cache_lock;
  match f () with
  | v ->
      Mutex.unlock cache_lock;
      v
  | exception e ->
      Mutex.unlock cache_lock;
      raise e

let table : (int, t) Hashtbl.t = Hashtbl.create 16

let make_unchecked m full =
  {
    m;
    taps = full land ((1 lsl m) - 1);
    mask = (1 lsl m) - 1;
    full;
    tables = Atomic.make None;
  }

let create m =
  if m < 1 || m > max_degree then raise (Invalid_degree m);
  with_cache_lock (fun () ->
      match Hashtbl.find_opt table m with
      | Some f -> f
      | None ->
          let f = make_unchecked m (find_irreducible m) in
          Hashtbl.add table m f;
          f)

let create_with_poly ~m ~poly =
  if m < 1 || m > max_degree then raise (Invalid_degree m);
  if poly_degree poly <> m then
    invalid_arg "Gf2p.create_with_poly: polynomial degree mismatch";
  if not (irreducible ~m ~poly) then
    invalid_arg "Gf2p.create_with_poly: polynomial is reducible";
  make_unchecked m poly

(* Build multiplication tables from successive powers of x (a generator of
   the field as an additive spanning sequence is unnecessary: x generates a
   cyclic subgroup; for table lookups we need a full multiplicative
   generator, found below). *)
let build_tables f =
  let group = f.mask in
  (* Find a multiplicative generator without recursing into [mul]. *)
  let raw_mul = mul_with ~m:f.m ~taps:f.taps in
  let raw_pow x k =
    let rec go x k acc =
      if k = 0 then acc
      else
        let acc = if k land 1 = 1 then raw_mul acc x else acc in
        go (raw_mul x x) (k lsr 1) acc
    in
    go x k 1
  in
  let primes = Numth.prime_divisors group in
  let is_gen g = List.for_all (fun p -> raw_pow g (group / p) <> 1) primes in
  let rec search g = if is_gen g then g else search (g + 1) in
  let gen = if f.m = 1 then 1 else search 2 in
  (* Sentinel-extended tables: log 0 is undefined, so its slot holds
     s = 2 * (2^m - 1), past any sum of two real logs; exp holds the
     generator powers twice over [0, s) (a sum of two logs needs no
     modulo) and zeros over [s, 2s]. Then exp.{log a + log b} = a * b for
     every a and b, zero included, with no branch. Elements fit 16 bits,
     so exp is an unboxed int16 bigarray; log is an int array because s
     does not fit 16 bits at m = 16. Kernel uses both as they are. *)
  let s = 2 * group in
  let exp_t = Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout ((2 * s) + 1) in
  Bigarray.Array1.fill exp_t 0;
  let log_t = Array.make (group + 1) s in
  let x = ref 1 in
  for k = 0 to group - 1 do
    exp_t.{k} <- !x;
    exp_t.{k + group} <- !x;
    log_t.(!x) <- k;
    x := raw_mul !x gen
  done;
  let tables = (exp_t, log_t) in
  Atomic.set f.tables (Some tables);
  tables

let tables_of f =
  match Atomic.get f.tables with
  | Some t -> Some t
  | None when f.m <= table_degree_limit ->
      Some
        (with_cache_lock (fun () ->
             (* double-checked: another domain may have built them while we
                waited for the lock *)
             match Atomic.get f.tables with
             | Some t -> t
             | None -> build_tables f))
  | None -> None

let tables = tables_of

let mul f a b =
  assert (is_valid f a && is_valid f b);
  match tables_of f with
  | Some (exp_t, log_t) -> exp_t.{log_t.(a) + log_t.(b)}
  | None -> mul_with ~m:f.m ~taps:f.taps a b

let sq f a = mul f a a

let pow f x k =
  assert (k >= 0);
  let rec go x k acc =
    if k = 0 then acc
    else
      let acc = if k land 1 = 1 then mul f acc x else acc in
      go (sq f x) (k lsr 1) acc
  in
  go x k one

(* a^(2^m - 2) = a^(-1) in GF(2^m)'s multiplicative group. *)
let inv f a =
  if a = 0 then raise Division_by_zero;
  match tables_of f with
  | Some (exp_t, log_t) -> exp_t.{f.mask - log_t.(a)}
  | None -> pow f a (f.mask - 1)

let div f a b = mul f a (inv f b)

(* Random.State.int is limited to small bounds; full_int covers the whole
   field range for large m. *)
let random f st = Random.State.full_int st (1 lsl f.m)
let random_nonzero f st = 1 + Random.State.full_int st f.mask
