(* The byte codec's contract (wire.mli, packet.mli), checked through the
   packet codec that Socket frames, with one fixed envelope:

   - Round-trip: [decode (encode p) = Ok p] for every payload, including
     deep nesting and negative integers (zigzag varints).
   - Overhead bound: for canonical payloads whose integer fields fit in
     28 bits, the payload's bytes [n] satisfy
     [8 * n <= 2 * bits p + 64 * nodes p]. The constant is part of the
     contract — a codec change may lower it but must never raise it.
   - Totality: [decode] of arbitrary attacker bytes returns [Ok]/[Error],
     never raises, and never lets a declared element count drive
     allocation beyond the input size. *)

open Nab_net

let envelope p = Packet.direct ~proto:"wire-test" ~origin:1 ~dst:2 p
let encode p = Packet.encode (envelope p)

let decode s =
  match Packet.decode s with
  | Ok q when q = envelope q.Packet.payload -> Ok q.Packet.payload
  | Ok _ -> Error "envelope changed"
  | Error e -> Error e

(* The envelope's bytes: everything ahead of the payload. [Nothing] is a
   single tag byte. *)
let header =
  let s = encode Wire.Nothing in
  String.sub s 0 (String.length s - 1)

let payload_bytes p = String.length (encode p) - String.length header

(* The unit of the overhead bound: 1 per constructor, plus 1 per array
   element, label element and claim, plus each claim's phase length. *)
let rec nodes = function
  | Wire.Flag _ | Wire.Nothing -> 1
  | Wire.Value { data; _ } | Wire.Coded { data; _ } -> 1 + Array.length data
  | Wire.Labeled { label; body } -> 1 + List.length label + nodes body
  | Wire.Batch ps -> List.fold_left (fun acc p -> acc + nodes p) 1 ps
  | Wire.Claims cs ->
      List.fold_left
        (fun acc c -> acc + 1 + String.length c.Wire.c_phase + nodes c.Wire.c_body)
        1 cs

(* ------------------------- payload generators ------------------------- *)

(* Canonical payloads: every integer fits in 28 bits (4-byte varints), as
   every honest payload in the repository does — the regime where the
   documented overhead bound applies. *)
let gen_canonical =
  let open QCheck.Gen in
  let small_pos = int_bound 0x0FFF_FFFF in
  let sym = int_bound 0xFFFF in
  sized_size (int_bound 5) @@ fix (fun self n ->
      let leaf =
        oneof
          [
            map (fun b -> Wire.Flag b) bool;
            return Wire.Nothing;
            map2
              (fun b data -> Wire.Value { bits = max 1 b; data })
              (int_range 1 4096)
              (map Array.of_list (list_size (int_bound 16) sym));
            map2
              (fun sb data -> Wire.Coded { sym_bits = max 1 sb; data })
              (int_range 1 64)
              (map Array.of_list (list_size (int_bound 16) sym));
          ]
      in
      if n = 0 then leaf
      else
        oneof
          [
            leaf;
            map2
              (fun label body -> Wire.Labeled { label; body })
              (list_size (int_bound 4) (int_bound 255))
              (self (n - 1));
            map (fun ps -> Wire.Batch ps) (list_size (int_bound 4) (self (n - 1)));
            map
              (fun cs -> Wire.Claims cs)
              (list_size (int_bound 3)
                 (map2
                    (fun (c_phase, c_round, c_src, c_dst, dir) c_body ->
                      {
                        Wire.c_phase;
                        c_round;
                        c_src;
                        c_dst;
                        c_dir = (if dir then Wire.Sent else Wire.Received);
                        c_body;
                      })
                    (tup5 (string_size ~gen:(char_range 'a' 'z') (int_bound 8))
                       small_pos (int_bound 64) (int_bound 64) bool)
                    (self (n - 1))));
          ])

(* Arbitrary payloads: any int (negative included — Byzantine senders do
   emit them), any string bytes. Round-trip must still hold exactly. *)
let gen_arbitrary =
  let open QCheck.Gen in
  let any_int =
    oneof [ int; return min_int; return max_int; return (-1); return 0 ]
  in
  sized_size (int_bound 5) @@ fix (fun self n ->
      let leaf =
        oneof
          [
            map (fun b -> Wire.Flag b) bool;
            return Wire.Nothing;
            map2
              (fun b data -> Wire.Value { bits = b; data })
              any_int
              (map Array.of_list (list_size (int_bound 8) any_int));
            map2
              (fun sb data -> Wire.Coded { sym_bits = sb; data })
              any_int
              (map Array.of_list (list_size (int_bound 8) any_int));
          ]
      in
      if n = 0 then leaf
      else
        oneof
          [
            leaf;
            map2
              (fun label body -> Wire.Labeled { label; body })
              (list_size (int_bound 4) any_int)
              (self (n - 1));
            map (fun ps -> Wire.Batch ps) (list_size (int_bound 4) (self (n - 1)));
            map
              (fun cs -> Wire.Claims cs)
              (list_size (int_bound 2)
                 (map2
                    (fun (c_phase, c_round, c_src, c_dst, dir) c_body ->
                      {
                        Wire.c_phase;
                        c_round;
                        c_src;
                        c_dst;
                        c_dir = (if dir then Wire.Sent else Wire.Received);
                        c_body;
                      })
                    (tup5 (string_size (int_bound 12)) any_int any_int any_int
                       bool)
                    (self (n - 1))));
          ])

let arb_canonical = QCheck.make ~print:(Format.asprintf "%a" Wire.pp) gen_canonical
let arb_arbitrary = QCheck.make ~print:(Format.asprintf "%a" Wire.pp) gen_arbitrary

(* --------------------------- overhead bound --------------------------- *)

let within_bound p = 8 * payload_bytes p <= (2 * Wire.bits p) + (64 * nodes p)

let bound_report p =
  Format.asprintf "%a: 8*%d bytes vs 2*%d bits + 64*%d nodes" Wire.pp p (payload_bytes p)
    (Wire.bits p) (nodes p)

(* One exemplar per constructor, including the worst canonical cases we
   could think of (empty arrays, wide labels, single-claim transcripts):
   if the constant-per-node overhead budget is ever blown, it shows up
   here with the exact arithmetic in the failure message. *)
let test_bound_constructors () =
  let value ~bits n =
    Wire.Value { bits; data = Array.init n (fun i -> (i * 257) land 0xFFFF) }
  in
  let exemplars =
    [
      Wire.Flag true;
      Wire.Flag false;
      Wire.Nothing;
      value ~bits:256 16;
      value ~bits:1 0;
      (* declared bits below physical: the 64*size term must absorb it *)
      value ~bits:1 4;
      Wire.Coded { sym_bits = 16; data = Array.init 8 (fun i -> i * 1000) };
      Wire.Coded { sym_bits = 1; data = [| 0 |] };
      Wire.Labeled { label = [ 0; 1; 2; 3 ]; body = Wire.Flag true };
      Wire.Labeled { label = []; body = Wire.Nothing };
      Wire.Batch [];
      Wire.Batch [ Wire.Flag true; Wire.Nothing; value ~bits:32 2 ];
      Wire.Claims [];
      Wire.Claims
        [
          {
            Wire.c_phase = "ec.exchange";
            c_round = 3;
            c_src = 1;
            c_dst = 2;
            c_dir = Wire.Sent;
            c_body = value ~bits:64 4;
          };
        ];
    ]
  in
  List.iter
    (fun p -> Alcotest.(check bool) (bound_report p) true (within_bound p))
    exemplars

let test_bound_qcheck =
  QCheck.Test.make ~count:500 ~name:"overhead bound on random canonical payloads"
    arb_canonical (fun p ->
      if within_bound p then true else QCheck.Test.fail_report (bound_report p))

(* ------------------------------ bit count ------------------------------ *)

(* [Wire.bits] as a closure fold per element — the plain statement of the
   accounting rule the direct recursion in wire.ml must reproduce. *)
let rec ref_bits = function
  | Wire.Flag _ -> 1
  | Wire.Value { bits = b; _ } -> max 1 b
  | Wire.Coded { sym_bits; data } -> max 1 (sym_bits * Array.length data)
  | Wire.Labeled { label; body } -> (8 * List.length label) + ref_bits body
  | Wire.Batch ps -> max 1 (List.fold_left (fun acc p -> acc + ref_bits p) 0 ps)
  | Wire.Claims cs ->
      max 1 (List.fold_left (fun acc c -> acc + 32 + ref_bits c.Wire.c_body) 0 cs)
  | Wire.Nothing -> 1

(* Flag-stage shaped payloads: batches of labelled batches of many flags,
   with the odd nested payload in between. *)
let gen_flag_batches =
  let open QCheck.Gen in
  let inner =
    list_size (int_bound 64)
      (frequency
         [ (8, map (fun b -> Wire.Flag b) bool); (1, return Wire.Nothing); (1, gen_canonical) ])
  in
  map
    (fun items -> Wire.Batch items)
    (list_size (int_bound 16)
       (map2
          (fun label body -> Wire.Labeled { label; body = Wire.Batch body })
          (list_size (int_bound 3) (int_bound 255))
          inner))

let test_bits_qcheck =
  let prop p = Wire.bits p = ref_bits p in
  [
    QCheck.Test.make ~count:500 ~name:"bits = closure-fold reference (canonical)"
      arb_canonical prop;
    QCheck.Test.make ~count:500 ~name:"bits = closure-fold reference (arbitrary ints)"
      arb_arbitrary prop;
    QCheck.Test.make ~count:200 ~name:"bits = closure-fold reference (flag batches)"
      (QCheck.make ~print:(Format.asprintf "%a" Wire.pp) gen_flag_batches)
      prop;
  ]

(* ----------------------------- round-trip ----------------------------- *)

let test_roundtrip_qcheck =
  QCheck.Test.make ~count:500 ~name:"decode (encode p) = Ok p (arbitrary ints)"
    arb_arbitrary (fun p -> decode (encode p) = Ok p)

let deep_nest depth =
  let rec go d acc =
    if d = 0 then acc
    else
      go (d - 1)
        (if d mod 2 = 0 then Wire.Batch [ acc ]
         else Wire.Labeled { label = [ d land 0xFF ]; body = acc })
  in
  go depth (Wire.Flag true)

let test_roundtrip_deep () =
  (* Just under the decoder's depth cap: must round-trip exactly. *)
  let p = deep_nest 190 in
  Alcotest.(check bool) "depth-190 payload round-trips" true
    (decode (encode p) = Ok p);
  (* Beyond the cap: encoding still works (the cap protects the decoder's
     stack, not honest senders), decoding is a clean error. *)
  let too_deep = encode (deep_nest 300) in
  match decode too_deep with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth-300 payload decoded past the nesting cap"

let test_roundtrip_extreme_ints () =
  let p =
    Wire.Batch
      [
        Wire.Value { bits = min_int; data = [| min_int; max_int; -1; 0 |] };
        Wire.Coded { sym_bits = max_int; data = [| min_int + 1 |] };
        Wire.Labeled { label = [ min_int; max_int ]; body = Wire.Nothing };
        Wire.Claims
          [
            {
              Wire.c_phase = "\x00\xff binary phase";
              c_round = min_int;
              c_src = max_int;
              c_dst = min_int;
              c_dir = Wire.Received;
              c_body = Wire.Flag false;
            };
          ];
      ]
  in
  Alcotest.(check bool) "min_int/max_int fields round-trip" true
    (decode (encode p) = Ok p)

(* ------------------------- adversarial decode ------------------------- *)

(* decode must be total: whatever the bytes, it returns Ok/Error and never
   raises. Exercised over pure noise (alone and behind a valid envelope),
   valid encodings with a corrupted payload byte, and every strict
   truncation of a valid encoding. *)

let decode_total s =
  match decode s with Ok _ | Error _ -> true | exception _ -> false

let test_fuzz_random =
  QCheck.Test.make ~count:1000 ~name:"decode of random bytes never raises"
    QCheck.(string_of_size Gen.(int_bound 64))
    (fun noise -> decode_total (header ^ noise) && decode_total noise)

let test_fuzz_mutated =
  QCheck.Test.make ~count:500 ~name:"decode of corrupted encodings never raises"
    QCheck.(pair arb_canonical (pair small_nat small_nat))
    (fun (p, (pos, delta)) ->
      let b = Bytes.of_string (encode p) in
      let hlen = String.length header in
      let len = Bytes.length b - hlen in
      if len > 0 then begin
        let pos = hlen + (pos mod len) in
        Bytes.set b pos
          (Char.chr ((Char.code (Bytes.get b pos) + 1 + delta) land 0xFF))
      end;
      decode_total (Bytes.to_string b))

let test_fuzz_truncations =
  (* Any strict prefix of a valid encoding must be an Error: if a prefix
     parsed as a complete payload, the full string would have had trailing
     bytes and could not itself have decoded — so Ok on a prefix would
     mean the decoder is not a function of the byte stream. *)
  QCheck.Test.make ~count:200 ~name:"every strict truncation is a decode error"
    arb_canonical (fun p ->
      let s = encode p in
      let ok = ref true in
      for len = 0 to String.length s - 1 do
        match decode (String.sub s 0 len) with
        | Error _ -> ()
        | Ok _ -> ok := false
        | exception _ -> ok := false
      done;
      !ok)

let test_oversized_counts () =
  (* A tiny frame declaring a huge element count must be rejected by the
     pre-allocation check — these calls returning (quickly, without OOM)
     is the point of the test. Tags: 2=Value 3=Coded 4=Labeled 5=Batch
     6=Claims; counts are LEB128 uvarints. *)
  let uvarint n =
    let buf = Buffer.create 8 in
    let n = ref n in
    while !n land lnot 0x7f <> 0 do
      Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
      n := !n lsr 7
    done;
    Buffer.add_char buf (Char.chr !n);
    Buffer.contents buf
  in
  let billion = uvarint 1_000_000_000 in
  let huge = uvarint max_int in
  let cases =
    [
      ("Value claiming 1e9 elements", "\x02\x00" ^ billion);
      ("Coded claiming max_int elements", "\x03\x02" ^ huge);
      ("Labeled claiming 1e9 labels", "\x04" ^ billion);
      ("Batch claiming 1e9 payloads", "\x05" ^ billion);
      ("Claims claiming 1e9 claims", "\x06" ^ billion);
      ("Batch of Batches each claiming 1e9", "\x05\x02\x05" ^ billion);
    ]
  in
  List.iter
    (fun (label, s) ->
      match decode (header ^ s) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (label ^ ": decoded instead of rejecting")
      | exception e ->
          Alcotest.fail (label ^ ": raised " ^ Printexc.to_string e))
    cases

let test_trailing_garbage () =
  let s = encode (Wire.Flag true) ^ "\x00" in
  match decode s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing byte accepted"

(* -------------------------------- main -------------------------------- *)

let () =
  Alcotest.run "wire"
    [
      ( "overhead bound",
        [
          Alcotest.test_case "every constructor" `Quick test_bound_constructors;
          QCheck_alcotest.to_alcotest test_bound_qcheck;
        ] );
      ("bit count", List.map QCheck_alcotest.to_alcotest test_bits_qcheck);
      ( "round-trip",
        [
          QCheck_alcotest.to_alcotest test_roundtrip_qcheck;
          Alcotest.test_case "deep nesting and the depth cap" `Quick
            test_roundtrip_deep;
          Alcotest.test_case "extreme integers" `Quick test_roundtrip_extreme_ints;
        ] );
      ( "adversarial decode",
        [
          QCheck_alcotest.to_alcotest test_fuzz_random;
          QCheck_alcotest.to_alcotest test_fuzz_mutated;
          QCheck_alcotest.to_alcotest test_fuzz_truncations;
          Alcotest.test_case "oversized declared counts" `Quick
            test_oversized_counts;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
        ] );
    ]
