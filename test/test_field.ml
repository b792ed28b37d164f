(* Tests for Numth and Gf2p. *)

open Nab_field

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------- Numth ---------- *)

(* Numth exports prime_divisors only; its primality test, factoring and
   modular arithmetic are checked through it. *)

let is_prime n = Numth.prime_divisors n = [ n ]

(* Divide every listed prime out of [n] as often as it goes. *)
let rec strip n = function
  | [] -> n
  | p :: ps -> if n mod p = 0 then strip (n / p) (p :: ps) else strip n ps

let test_is_prime_small () =
  let primes = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47 ] in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "is_prime %d" n) (List.mem n primes) (is_prime n))
    (List.init 47 (fun i -> i + 1))

let test_is_prime_mersenne () =
  Alcotest.(check bool) "2^61-1 prime" true (is_prime ((1 lsl 61) - 1));
  Alcotest.(check bool) "2^61-3 composite" false (is_prime ((1 lsl 61) - 3));
  Alcotest.(check bool) "2^31-1 prime" true (is_prime ((1 lsl 31) - 1))

let test_factor_reconstructs () =
  List.iter
    (fun n ->
      let ps = Numth.prime_divisors n in
      List.iter (fun p -> Alcotest.(check bool) (Printf.sprintf "%d prime" p) true (is_prime p)) ps;
      Alcotest.(check int) (Printf.sprintf "factor %d" n) 1 (strip n ps))
    [ 1; 2; 12; 97; 1024; 3 * 5 * 17 * 257; (1 lsl 32) - 1; 600851475143; 999999999989 ]

(* A 60-bit semiprime of two 30-bit primes: Miller-Rabin and Pollard-Brent
   only find its split if the 61-bit modular products are exact. *)
let test_mulmod_powmod () =
  let p = 1073741789 and q = 1073741827 in
  Alcotest.(check (list int)) "60-bit semiprime" [ p; q ] (Numth.prime_divisors (p * q));
  Alcotest.(check (list int)) "square of a 30-bit prime" [ q ] (Numth.prime_divisors (q * q))

let test_prime_divisors () =
  Alcotest.(check (list int)) "60" [ 2; 3; 5 ] (Numth.prime_divisors 60);
  Alcotest.(check (list int)) "1" [] (Numth.prime_divisors 1)

let test_factor_property =
  qtest ~count:300 "factor reconstructs and yields primes"
    QCheck2.Gen.(int_range 1 1_000_000_000)
    (fun n ->
      let ps = Numth.prime_divisors n in
      List.for_all is_prime ps && strip n ps = 1 && List.sort_uniq compare ps = ps)

(* ---------- Gf2p ---------- *)

let fields = List.map Gf2p.create [ 1; 2; 3; 4; 8; 13; 16; 24; 32; 48; 61 ]

let elt_gen f = QCheck2.Gen.int_bound ((1 lsl Gf2p.degree f) - 1)
let sq f a = Gf2p.mul f a a

(* Textbook shift-and-xor multiplication modulo the field's polynomial,
   independent of the library's table acceleration. *)
let shift_xor_mul f a b =
  let m = Gf2p.degree f in
  let taps = Gf2p.reduction_poly f land ((1 lsl m) - 1) in
  let hi = 1 lsl (m - 1) and mask = (1 lsl m) - 1 in
  let rec go a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 = 1 then acc lxor a else acc in
      let a = if a land hi <> 0 then ((a lsl 1) land mask) lxor taps else a lsl 1 in
      go a (b lsr 1) acc
  in
  go a b 0

let test_create_bounds () =
  Alcotest.check_raises "degree 0" (Gf2p.Invalid_degree 0) (fun () ->
      ignore (Gf2p.create 0));
  Alcotest.check_raises "degree 62" (Gf2p.Invalid_degree 62) (fun () ->
      ignore (Gf2p.create 62))

(* The irreducibility test is what create_with_poly accepts a polynomial
   by. *)
let test_known_irreducibles () =
  let irreducible ~m ~poly =
    match Gf2p.create_with_poly ~m ~poly with
    | _ -> true
    | exception Invalid_argument _ -> false
  in
  Alcotest.(check bool) "x^2+x+1" true (irreducible ~m:2 ~poly:0b111);
  Alcotest.(check bool) "x^2+1 reducible" false (irreducible ~m:2 ~poly:0b101);
  Alcotest.(check bool) "x^3+x+1" true (irreducible ~m:3 ~poly:0b1011);
  Alcotest.(check bool) "x^4+x+1" true (irreducible ~m:4 ~poly:0b10011);
  Alcotest.(check bool) "x^4+x^2+1 reducible" false (irreducible ~m:4 ~poly:0b10101);
  Alcotest.(check bool) "aes poly" true (irreducible ~m:8 ~poly:0x11B);
  (* x^8 + x^4 + x^3 + x^2 + 1 is also irreducible *)
  Alcotest.(check bool) "0x11D" true (irreducible ~m:8 ~poly:0x11D)

let test_create_with_poly_validates () =
  Alcotest.check_raises "reducible rejected"
    (Invalid_argument "Gf2p.create_with_poly: polynomial is reducible") (fun () ->
      ignore (Gf2p.create_with_poly ~m:2 ~poly:0b101))

let field_axiom_tests =
  List.concat_map
    (fun f ->
      let m = Gf2p.degree f in
      let pair = QCheck2.Gen.pair (elt_gen f) (elt_gen f) in
      let triple = QCheck2.Gen.triple (elt_gen f) (elt_gen f) (elt_gen f) in
      [
        qtest (Printf.sprintf "GF(2^%d) mul assoc" m) triple (fun (a, b, c) ->
            Gf2p.mul f (Gf2p.mul f a b) c = Gf2p.mul f a (Gf2p.mul f b c));
        qtest (Printf.sprintf "GF(2^%d) mul comm" m) pair (fun (a, b) ->
            Gf2p.mul f a b = Gf2p.mul f b a);
        qtest (Printf.sprintf "GF(2^%d) distributivity" m) triple (fun (a, b, c) ->
            Gf2p.mul f a (Gf2p.add f b c)
            = Gf2p.add f (Gf2p.mul f a b) (Gf2p.mul f a c));
        qtest (Printf.sprintf "GF(2^%d) mul identity" m) (elt_gen f) (fun a ->
            Gf2p.mul f a 1 = a);
        qtest (Printf.sprintf "GF(2^%d) add self-inverse" m) (elt_gen f) (fun a ->
            Gf2p.add f a a = 0);
        qtest (Printf.sprintf "GF(2^%d) inverse" m) (elt_gen f) (fun a ->
            a = 0 || Gf2p.mul f a (Gf2p.inv f a) = 1);
        qtest (Printf.sprintf "GF(2^%d) div mul roundtrip" m) pair (fun (a, b) ->
            b = 0 || Gf2p.mul f (Gf2p.div f a b) b = a);
        (* Above degree 16, inv squares and multiplies its way to a^(2^m - 2). *)
        qtest (Printf.sprintf "GF(2^%d) sq consistent" m) (elt_gen f) (fun a ->
            a = 0 || Gf2p.inv f (sq f a) = sq f (Gf2p.inv f a));
        qtest (Printf.sprintf "GF(2^%d) frobenius additive" m) pair (fun (a, b) ->
            sq f (Gf2p.add f a b) = Gf2p.add f (sq f a) (sq f b));
      ])
    fields

(* inv is a^(2^m - 2) by square-and-multiply on the untabled degrees, so
   the power laws show there as laws of the inverse. *)
let test_pow_laws () =
  List.iter
    (fun m ->
      let f = Gf2p.create m in
      let st = Random.State.make [| 5; m |] in
      for _ = 1 to 100 do
        let a = Gf2p.random_nonzero f st and b = Gf2p.random_nonzero f st in
        Alcotest.(check int) "group order: a * a^(2^m - 2) = 1" 1 (Gf2p.mul f a (Gf2p.inv f a));
        Alcotest.(check int) "(ab)^k = a^k b^k"
          (Gf2p.mul f (Gf2p.inv f a) (Gf2p.inv f b))
          (Gf2p.inv f (Gf2p.mul f a b));
        Alcotest.(check int) "involution" a (Gf2p.inv f (Gf2p.inv f a))
      done)
    [ 17; 24; 32; 61 ]

let test_mul_against_inline_oracle () =
  List.iter
    (fun m ->
      let f = Gf2p.create m in
      let st = Random.State.make [| m; 3 |] in
      for _ = 1 to 1000 do
        let a = Gf2p.random f st and b = Gf2p.random f st in
        Alcotest.(check int)
          (Printf.sprintf "m=%d: %d*%d" m a b)
          (shift_xor_mul f a b) (Gf2p.mul f a b)
      done)
    [ 2; 3; 8; 13; 14; 16; 32; 61 ]

(* The log tables are powers of the generator the field found: exp.{k} is
   g^k. The 2^m - 1 powers are distinct, so g has full order. *)
let test_generator_order () =
  List.iter
    (fun m ->
      let f = Gf2p.create m in
      let n = (1 lsl m) - 1 in
      match Gf2p.tables f with
      | None -> Alcotest.failf "GF(2^%d) has no tables" m
      | Some (exp, _) ->
          let g = exp.{1} in
          let seen = Hashtbl.create n in
          let x = ref 1 in
          for k = 0 to n - 1 do
            Alcotest.(check int) (Printf.sprintf "exp.{%d} = g^%d in GF(2^%d)" k k m) !x exp.{k};
            if Hashtbl.mem seen !x then Alcotest.failf "g^%d repeats in GF(2^%d)" k m;
            Hashtbl.add seen !x ();
            x := shift_xor_mul f !x g
          done;
          Alcotest.(check int) (Printf.sprintf "g^%d = 1 in GF(2^%d)" n m) 1 !x)
    [ 2; 3; 4; 8; 12; 16 ]

let () =
  Alcotest.run "field"
    [
      ( "numth",
        [
          Alcotest.test_case "is_prime small" `Quick test_is_prime_small;
          Alcotest.test_case "is_prime mersenne" `Quick test_is_prime_mersenne;
          Alcotest.test_case "factor reconstructs" `Quick test_factor_reconstructs;
          Alcotest.test_case "mulmod powmod" `Quick test_mulmod_powmod;
          Alcotest.test_case "prime divisors" `Quick test_prime_divisors;
          test_factor_property;
        ] );
      ( "gf2p",
        [
          Alcotest.test_case "create bounds" `Quick test_create_bounds;
          Alcotest.test_case "known irreducibles" `Quick test_known_irreducibles;
          Alcotest.test_case "create_with_poly validates" `Quick
            test_create_with_poly_validates;
          Alcotest.test_case "mul vs inline oracle" `Quick test_mul_against_inline_oracle;
          Alcotest.test_case "pow laws" `Quick test_pow_laws;
          Alcotest.test_case "generator order" `Quick test_generator_order;
        ]
        @ field_axiom_tests );
    ]
