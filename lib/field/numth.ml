let gcd a b =
  let rec go a b = if b = 0 then a else go b (a mod b) in
  go (abs a) (abs b)

(* Russian-peasant modular product: [2 * acc] stays below 2^62 because the
   modulus is at most 2^61. *)
let mulmod a b n =
  assert (0 <= a && a < n && 0 <= b && b < n);
  let rec go a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 = 1 then (acc + a) mod n else acc in
      go ((a + a) mod n) (b lsr 1) acc
  in
  go a b 0

let powmod b e n =
  assert (e >= 0 && n >= 1);
  if n = 1 then 0
  else
    let rec go b e acc =
      if e = 0 then acc
      else
        let acc = if e land 1 = 1 then mulmod acc b n else acc in
        go (mulmod b b n) (e lsr 1) acc
    in
    go (b mod n) e 1

(* Deterministic Miller-Rabin: this base set is a proven witness set for all
   integers below 3.3 * 10^24, which covers the native-int range. *)
let miller_rabin_bases = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

let is_prime n =
  if n < 2 then false
  else if n < 4 then true
  else if n land 1 = 0 then false
  else begin
    let d = ref (n - 1) and s = ref 0 in
    while !d land 1 = 0 do
      d := !d lsr 1;
      incr s
    done;
    let witnesses_composite a =
      let a = a mod n in
      if a = 0 then false
      else begin
        let x = ref (powmod a !d n) in
        if !x = 1 || !x = n - 1 then false
        else begin
          let composite = ref true in
          (try
             for _ = 1 to !s - 1 do
               x := mulmod !x !x n;
               if !x = n - 1 then begin
                 composite := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !composite
        end
      end
    in
    not (List.exists witnesses_composite miller_rabin_bases)
  end

(* Pollard-Brent rho; returns a non-trivial factor of a composite n. The
   random starts use [full_int]: [Random.State.int] rejects bounds of 2^30
   and up, which a composite left over by trial division can exceed. *)
let pollard_brent rng n =
  assert (n > 3 && not (is_prime n));
  if n land 1 = 0 then 2
  else begin
    let rec attempt () =
      let c = 1 + Random.State.full_int rng (n - 1) in
      let f x = (mulmod x x n + c) mod n in
      let y = ref (1 + Random.State.full_int rng (n - 1)) in
      let g = ref 1 and r = ref 1 and q = ref 1 in
      let x = ref 0 and ys = ref 0 in
      while !g = 1 do
        x := !y;
        for _ = 1 to !r do
          y := f !y
        done;
        let k = ref 0 in
        while !k < !r && !g = 1 do
          ys := !y;
          let batch = min 128 (!r - !k) in
          for _ = 1 to batch do
            y := f !y;
            q := mulmod !q (abs (!x - !y)) n
          done;
          g := gcd !q n;
          k := !k + batch
        done;
        r := !r * 2
      done;
      if !g = n then begin
        (* Backtrack one step at a time to recover the factor. *)
        g := 1;
        while !g = 1 do
          ys := f !ys;
          g := gcd (abs (!x - !ys)) n
        done
      end;
      if !g = n then attempt () else !g
    in
    attempt ()
  end

let factor n =
  if n <= 0 then invalid_arg "Numth.factor: non-positive argument";
  let rng = Random.State.make [| 0x9e3779b9; n |] in
  let counts = Hashtbl.create 8 in
  let record p = Hashtbl.replace counts p (1 + try Hashtbl.find counts p with Not_found -> 0) in
  let rec split n =
    if n = 1 then ()
    else if is_prime n then record n
    else begin
      (* Strip small primes first so rho only sees hard composites. *)
      let n = ref n and p = ref 2 in
      while !p * !p <= !n && !p < 10_000 do
        while !n mod !p = 0 do
          record !p;
          n := !n / !p
        done;
        p := if !p = 2 then 3 else !p + 2
      done;
      if !n > 1 then
        if is_prime !n then record !n
        else begin
          let d = pollard_brent rng !n in
          split d;
          split (!n / d)
        end
    end
  in
  split n;
  Hashtbl.fold (fun p k acc -> (p, k) :: acc) counts []
  |> List.sort (fun (p, _) (q, _) -> compare p q)

let prime_divisors n = List.map fst (factor n)
