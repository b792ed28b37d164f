(* Tests for Numth and Gf2p. *)

open Nab_field

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------- Numth ---------- *)

let test_is_prime_small () =
  let primes = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47 ] in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "is_prime %d" n)
        (List.mem n primes) (Numth.is_prime n))
    (List.init 48 Fun.id)

let test_is_prime_mersenne () =
  Alcotest.(check bool) "2^61-1 prime" true (Numth.is_prime ((1 lsl 61) - 1));
  Alcotest.(check bool) "2^61-3 composite" false (Numth.is_prime ((1 lsl 61) - 3));
  Alcotest.(check bool) "2^31-1 prime" true (Numth.is_prime ((1 lsl 31) - 1))

let test_factor_reconstructs () =
  List.iter
    (fun n ->
      let fs = Numth.factor n in
      let prod =
        List.fold_left
          (fun acc (p, k) ->
            Alcotest.(check bool) (Printf.sprintf "%d prime" p) true (Numth.is_prime p);
            let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
            acc * pow p k)
          1 fs
      in
      Alcotest.(check int) (Printf.sprintf "factor %d" n) n prod)
    [ 1; 2; 12; 97; 1024; 3 * 5 * 17 * 257; (1 lsl 32) - 1; 600851475143; 999999999989 ]

let test_mulmod_powmod () =
  Alcotest.(check int) "mulmod" ((123456789 * 987) mod 1000003)
    (Numth.mulmod (123456789 mod 1000003) 987 1000003);
  (* Fermat: 2^(p-1) = 1 mod p *)
  let p = (1 lsl 31) - 1 in
  Alcotest.(check int) "fermat" 1 (Numth.powmod 2 (p - 1) p);
  let big = (1 lsl 61) - 1 in
  Alcotest.(check int) "fermat 2^61-1" 1 (Numth.powmod 3 (big - 1) big)

let test_prime_divisors () =
  Alcotest.(check (list int)) "60" [ 2; 3; 5 ] (Numth.prime_divisors 60);
  Alcotest.(check (list int)) "1" [] (Numth.prime_divisors 1)

let test_factor_property =
  qtest ~count:300 "factor reconstructs and yields primes"
    QCheck2.Gen.(int_range 1 1_000_000_000)
    (fun n ->
      let fs = Numth.factor n in
      let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
      List.for_all (fun (p, k) -> k >= 1 && Numth.is_prime p) fs
      && List.fold_left (fun acc (p, k) -> acc * pow p k) 1 fs = n
      && List.sort compare (List.map fst fs) = List.map fst fs)

let test_mulmod_property =
  qtest ~count:300 "mulmod agrees with exact product"
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_bound 1_000_000) (int_range 2 2_000_000))
    (fun (a, b, n) ->
      let a = a mod n and b = b mod n in
      Numth.mulmod a b n = a * b mod n)

(* ---------- Gf2p ---------- *)

let fields = List.map Gf2p.create [ 1; 2; 3; 4; 8; 13; 16; 24; 32; 48; 61 ]

let elt_gen f = QCheck2.Gen.int_bound ((1 lsl Gf2p.degree f) - 1)

let test_create_bounds () =
  Alcotest.check_raises "degree 0" (Gf2p.Invalid_degree 0) (fun () ->
      ignore (Gf2p.create 0));
  Alcotest.check_raises "degree 62" (Gf2p.Invalid_degree 62) (fun () ->
      ignore (Gf2p.create 62))

let test_known_irreducibles () =
  Alcotest.(check bool) "x^2+x+1" true (Gf2p.irreducible ~m:2 ~poly:0b111);
  Alcotest.(check bool) "x^2+1 reducible" false (Gf2p.irreducible ~m:2 ~poly:0b101);
  Alcotest.(check bool) "x^3+x+1" true (Gf2p.irreducible ~m:3 ~poly:0b1011);
  Alcotest.(check bool) "x^4+x+1" true (Gf2p.irreducible ~m:4 ~poly:0b10011);
  Alcotest.(check bool) "x^4+x^2+1 reducible" false (Gf2p.irreducible ~m:4 ~poly:0b10101);
  Alcotest.(check bool) "aes poly" true (Gf2p.irreducible ~m:8 ~poly:0x11B);
  (* x^8 + x^4 + x^3 + x^2 + 1 is also irreducible *)
  Alcotest.(check bool) "0x11D" true (Gf2p.irreducible ~m:8 ~poly:0x11D)

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
            Gf2p.mul f a Gf2p.one = a);
        qtest (Printf.sprintf "GF(2^%d) add self-inverse" m) (elt_gen f) (fun a ->
            Gf2p.add f a a = Gf2p.zero);
        qtest (Printf.sprintf "GF(2^%d) inverse" m) (elt_gen f) (fun a ->
            a = 0 || Gf2p.mul f a (Gf2p.inv f a) = Gf2p.one);
        qtest (Printf.sprintf "GF(2^%d) div mul roundtrip" m) pair (fun (a, b) ->
            b = 0 || Gf2p.mul f (Gf2p.div f a b) b = a);
        qtest (Printf.sprintf "GF(2^%d) sq consistent" m) (elt_gen f) (fun a ->
            Gf2p.sq f a = Gf2p.mul f a a);
        qtest (Printf.sprintf "GF(2^%d) frobenius additive" m) pair (fun (a, b) ->
            Gf2p.sq f (Gf2p.add f a b) = Gf2p.add f (Gf2p.sq f a) (Gf2p.sq f b));
      ])
    fields

let test_pow_laws () =
  let f = Gf2p.create 16 in
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 100 do
    let a = Gf2p.random_nonzero f st in
    let i = Random.State.int st 100 and j = Random.State.int st 100 in
    Alcotest.(check int) "pow add law"
      (Gf2p.pow f a (i + j))
      (Gf2p.mul f (Gf2p.pow f a i) (Gf2p.pow f a j))
  done;
  Alcotest.(check int) "x^0" Gf2p.one (Gf2p.pow f 0 0);
  (* Lagrange: a^(2^m - 1) = 1 *)
  let order_group = Gf2p.order f - 1 in
  Alcotest.(check int) "group order" Gf2p.one (Gf2p.pow f 0x1234 order_group)

(* Independent oracle: textbook shift-and-xor multiplication written here,
   guarding against bugs in the library's internal table acceleration. *)
let test_mul_against_inline_oracle () =
  List.iter
    (fun m ->
      let f = Gf2p.create m in
      let full = Gf2p.reduction_poly f in
      let taps = full land ((1 lsl m) - 1) in
      let oracle a b =
        let hi = 1 lsl (m - 1) and mask = (1 lsl m) - 1 in
        let rec go a b acc =
          if b = 0 then acc
          else
            let acc = if b land 1 = 1 then acc lxor a else acc in
            let a = if a land hi <> 0 then ((a lsl 1) land mask) lxor taps else a lsl 1 in
            go a (b lsr 1) acc
        in
        go a b 0
      in
      let st = Random.State.make [| m; 3 |] in
      for _ = 1 to 1000 do
        let a = Gf2p.random f st and b = Gf2p.random f st in
        Alcotest.(check int)
          (Printf.sprintf "m=%d: %d*%d" m a b)
          (oracle a b) (Gf2p.mul f a b)
      done)
    [ 2; 3; 8; 13; 14; 16; 32; 61 ]

let test_of_int_reduces () =
  let f = Gf2p.create 8 in
  Alcotest.(check bool) "reduced valid" true (Gf2p.is_valid f (Gf2p.of_int f 0x1FF00));
  Alcotest.(check int) "small unchanged" 0x42 (Gf2p.of_int f 0x42)

let test_generator_order () =
  List.iter
    (fun m ->
      let f = Gf2p.create m in
      let g = Gf2p.generator f in
      let n = Gf2p.order f - 1 in
      Alcotest.(check int) (Printf.sprintf "g^%d = 1 in GF(2^%d)" n m) Gf2p.one
        (Gf2p.pow f g n);
      (* g must not have smaller order: check proper divisors n/p. *)
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "g^(n/%d) <> 1" p)
            true
            (Gf2p.pow f g (n / p) <> Gf2p.one))
        (Numth.prime_divisors n))
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
          test_mulmod_property;
        ] );
      ( "gf2p",
        [
          Alcotest.test_case "create bounds" `Quick test_create_bounds;
          Alcotest.test_case "known irreducibles" `Quick test_known_irreducibles;
          Alcotest.test_case "create_with_poly validates" `Quick
            test_create_with_poly_validates;
          Alcotest.test_case "mul vs inline oracle" `Quick test_mul_against_inline_oracle;
          Alcotest.test_case "pow laws" `Quick test_pow_laws;
          Alcotest.test_case "of_int reduces" `Quick test_of_int_reduces;
          Alcotest.test_case "generator order" `Quick test_generator_order;
        ]
        @ field_axiom_tests );
    ]
