type dir = Sent | Received

type payload =
  | Flag of bool
  | Value of { bits : int; data : int array }
  | Coded of { sym_bits : int; data : int array }
  | Labeled of { label : int list; body : payload }
  | Batch of payload list
  | Claims of claim list
  | Nothing

and claim = {
  c_phase : string;
  c_round : int;
  c_src : int;
  c_dst : int;
  c_dir : dir;
  c_body : payload;
}

(* Direct recursion, no closure per element: the flag stage re-counts its
   [Batch] payloads at every relay hop. *)
let rec bits = function
  | Flag _ -> 1
  | Value { bits = b; _ } -> max 1 b
  | Coded { sym_bits; data } -> max 1 (sym_bits * Array.length data)
  | Labeled { label; body } -> (8 * List.length label) + bits body
  | Batch ps -> max 1 (batch_bits 0 ps)
  | Claims cs -> max 1 (claims_bits 0 cs)
  | Nothing -> 1

and batch_bits acc = function
  | [] -> acc
  | (Flag _ | Nothing) :: ps -> batch_bits (acc + 1) ps
  | p :: ps -> batch_bits (acc + bits p) ps

and claims_bits acc = function
  | [] -> acc
  | c :: cs -> claims_bits (acc + 32 + bits c.c_body) cs

let equal (a : payload) (b : payload) = a = b

(* ----------------------------- byte codec -----------------------------

   Every integer travels as a zigzag LEB128 varint, so arbitrary (also
   negative — Byzantine senders do that) ints round-trip exactly; strings
   and sequences are length-prefixed. The decoder is total: it never
   raises past its own boundary ([Packet.decode] catches [Bad]),
   and it validates every declared element count against the bytes that
   remain BEFORE allocating — a 4-byte header claiming 10^9 elements is
   rejected without touching the allocator, which is what makes feeding
   it raw attacker-controlled bytes safe. *)

let max_depth = 200

module Codec = struct
    let add_uvarint buf n =
    let n = ref n in
    while !n land lnot 0x7f <> 0 do
      Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
      n := !n lsr 7
    done;
    Buffer.add_char buf (Char.chr !n)

  (* Zigzag: signed -> unsigned, so small negative ints stay short. *)
  let add_varint buf n = add_uvarint buf ((n lsl 1) lxor (n asr 62))

  let add_string buf s =
    add_uvarint buf (String.length s);
    Buffer.add_string buf s

  type reader = { src : string; mutable pos : int }

  exception Bad of string

  let need r n =
    if n < 0 || r.pos + n > String.length r.src then raise (Bad "truncated input")

  let byte r =
    need r 1;
    let c = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    c

  let uvarint r =
    let rec go shift acc =
      if shift > 63 then raise (Bad "varint too long")
      else
        let b = byte r in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let varint r =
    let u = uvarint r in
    (u lsr 1) lxor (-(u land 1))

  let string_ r =
    let n = uvarint r in
    need r n;
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  (* A count of elements each at least [per] bytes long: bounded by the
     remaining input, so counts never drive allocation beyond input size. *)
  let count r ~per =
    let n = uvarint r in
    let remaining = String.length r.src - r.pos in
    (* n <= remaining first: rules out products overflowing to negative *)
    if n < 0 || n > remaining || n * per > remaining then
      raise (Bad "declared count exceeds remaining input");
    n
end

open Codec

let tag_flag_false = 0
let tag_flag_true = 1
let tag_value = 2
let tag_coded = 3
let tag_labeled = 4
let tag_batch = 5
let tag_claims = 6
let tag_nothing = 7

let rec encode_into buf = function
  | Flag false -> Buffer.add_char buf (Char.chr tag_flag_false)
  | Flag true -> Buffer.add_char buf (Char.chr tag_flag_true)
  | Value { bits = b; data } ->
      Buffer.add_char buf (Char.chr tag_value);
      add_varint buf b;
      add_uvarint buf (Array.length data);
      Array.iter (add_varint buf) data
  | Coded { sym_bits; data } ->
      Buffer.add_char buf (Char.chr tag_coded);
      add_varint buf sym_bits;
      add_uvarint buf (Array.length data);
      Array.iter (add_varint buf) data
  | Labeled { label; body } ->
      Buffer.add_char buf (Char.chr tag_labeled);
      add_uvarint buf (List.length label);
      List.iter (add_varint buf) label;
      encode_into buf body
  | Batch ps ->
      Buffer.add_char buf (Char.chr tag_batch);
      add_uvarint buf (List.length ps);
      List.iter (encode_into buf) ps
  | Claims cs ->
      Buffer.add_char buf (Char.chr tag_claims);
      add_uvarint buf (List.length cs);
      List.iter
        (fun c ->
          add_string buf c.c_phase;
          add_varint buf c.c_round;
          add_varint buf c.c_src;
          add_varint buf c.c_dst;
          Buffer.add_char buf (match c.c_dir with Sent -> '\000' | Received -> '\001');
          encode_into buf c.c_body)
        cs
  | Nothing -> Buffer.add_char buf (Char.chr tag_nothing)

(* [List.init]/[Array.init] leave the evaluation order of [f] unspecified,
   which matters when [f] advances a reader: force left-to-right. *)
let read_list n f =
  let rec go acc i = if i = n then List.rev acc else go (f () :: acc) (i + 1) in
  go [] 0

let read_array n f =
  if n = 0 then [||]
  else begin
    let a = Array.make n (f ()) in
    for i = 1 to n - 1 do
      a.(i) <- f ()
    done;
    a
  end

let rec decode_payload r depth =
  if depth > max_depth then raise (Bad "nesting too deep");
  let tag = byte r in
  if tag = tag_flag_false then Flag false
  else if tag = tag_flag_true then Flag true
  else if tag = tag_value then begin
    let b = varint r in
    let n = count r ~per:1 in
    let data = read_array n (fun () -> varint r) in
    Value { bits = b; data }
  end
  else if tag = tag_coded then begin
    let sym_bits = varint r in
    let n = count r ~per:1 in
    let data = read_array n (fun () -> varint r) in
    Coded { sym_bits; data }
  end
  else if tag = tag_labeled then begin
    let n = count r ~per:1 in
    let label = read_list n (fun () -> varint r) in
    let body = decode_payload r (depth + 1) in
    Labeled { label; body }
  end
  else if tag = tag_batch then begin
    let n = count r ~per:1 in
    Batch (read_list n (fun () -> decode_payload r (depth + 1)))
  end
  else if tag = tag_claims then begin
    let n = count r ~per:5 in
    let claims =
      read_list n (fun () ->
          let c_phase = string_ r in
          let c_round = varint r in
          let c_src = varint r in
          let c_dst = varint r in
          let c_dir =
            match byte r with
            | 0 -> Sent
            | 1 -> Received
            | _ -> raise (Bad "bad claim direction")
          in
          let c_body = decode_payload r (depth + 1) in
          { c_phase; c_round; c_src; c_dst; c_dir; c_body })
    in
    Claims claims
  end
  else if tag = tag_nothing then Nothing
  else raise (Bad (Printf.sprintf "unknown payload tag %d" tag))

let decode_from r = decode_payload r 0

let pp_dir fmt = function
  | Sent -> Format.pp_print_string fmt "sent"
  | Received -> Format.pp_print_string fmt "received"

let rec pp fmt = function
  | Flag b -> Format.fprintf fmt "Flag %b" b
  | Value { bits = b; data } ->
      Format.fprintf fmt "Value(%db, %d syms)" b (Array.length data)
  | Coded { sym_bits; data } ->
      Format.fprintf fmt "Coded(%d x %db)" (Array.length data) sym_bits
  | Labeled { label; body } ->
      Format.fprintf fmt "Labeled(%a: %a)"
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_char fmt '.')
           Format.pp_print_int)
        label pp body
  | Batch ps -> Format.fprintf fmt "Batch(%d)" (List.length ps)
  | Claims cs ->
      Format.fprintf fmt "Claims(%d)@[<v>%a@]" (List.length cs)
        (Format.pp_print_list (fun fmt c ->
             Format.fprintf fmt "@,[%s r%d %d->%d %a %a]" c.c_phase c.c_round c.c_src
               c.c_dst pp_dir c.c_dir pp c.c_body))
        cs
  | Nothing -> Format.pp_print_string fmt "Nothing"
