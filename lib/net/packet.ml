type t = {
  proto : string;
  origin : int;
  final_dst : int;
  route : int list;
  payload : Wire.payload;
}

(* Only information bits are charged, as in the paper's model; the envelope
   is protocol structure (akin to the paper specifying, statically, which
   symbol travels on which link at which time). *)
let bits p = Wire.bits p.payload

let direct ~proto ~origin ~dst payload =
  { proto; origin; final_dst = dst; route = []; payload }

(* Byte codec for the full packet (envelope + payload), layered on
   Wire.Codec — what Socket frames onto the real wire. *)

let encode_into buf p =
  Wire.Codec.add_string buf p.proto;
  Wire.Codec.add_varint buf p.origin;
  Wire.Codec.add_varint buf p.final_dst;
  Wire.Codec.add_uvarint buf (List.length p.route);
  List.iter (Wire.Codec.add_varint buf) p.route;
  Wire.encode_into buf p.payload

let encode p =
  let buf = Buffer.create 64 in
  encode_into buf p;
  Buffer.contents buf

let decode_from r =
  let proto = Wire.Codec.string_ r in
  let origin = Wire.Codec.varint r in
  let final_dst = Wire.Codec.varint r in
  let n = Wire.Codec.count r ~per:1 in
  let route = List.init n (fun _ -> Wire.Codec.varint r) in
  let payload = Wire.decode_from r in
  { proto; origin; final_dst; route; payload }

let decode s =
  let r = { Wire.Codec.src = s; pos = 0 } in
  match decode_from r with
  | p ->
      if r.Wire.Codec.pos <> String.length s then
        Error "trailing bytes after packet"
      else Ok p
  | exception Wire.Codec.Bad e -> Error e
