type t = { len : int; data : Bytes.t (* big-endian bit packing; padding bits zero *) }

let bytes_needed len = (len + 7) / 8

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; data = Bytes.make (bytes_needed len) '\000' }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec.get: out of range";
  Char.code (Bytes.get t.data (i / 8)) land (0x80 lsr (i mod 8)) <> 0

let set t i b =
  if i < 0 || i >= t.len then invalid_arg "Bitvec.set: out of range";
  let data = Bytes.copy t.data in
  let byte = Char.code (Bytes.get data (i / 8)) in
  let mask = 0x80 lsr (i mod 8) in
  let byte = if b then byte lor mask else byte land lnot mask in
  Bytes.set data (i / 8) (Char.chr (byte land 0xff));
  { t with data }

(* Clear padding bits of the last byte so equality stays structural. *)
let clear_padding len data =
  let rem = len mod 8 in
  if rem > 0 && Bytes.length data > 0 then begin
    let last = Bytes.length data - 1 in
    let keep = 0xff lsl (8 - rem) land 0xff in
    Bytes.set data last (Char.chr (Char.code (Bytes.get data last) land keep))
  end

let random len st =
  let t = create len in
  let data = Bytes.copy t.data in
  for i = 0 to Bytes.length data - 1 do
    Bytes.set data i (Char.chr (Random.State.int st 256))
  done;
  clear_padding len data;
  { len; data }

let random_stream len st =
  let memo = Hashtbl.create 16 in
  fun k ->
    match Hashtbl.find_opt memo k with
    | Some v -> v
    | None ->
        let v = random len st in
        Hashtbl.add memo k v;
        v

let equal a b = a.len = b.len && Bytes.equal a.data b.data
let compare a b = Stdlib.compare (a.len, a.data) (b.len, b.data)

let init len f =
  let t = create len in
  let data = Bytes.copy t.data in
  for i = 0 to len - 1 do
    if f i then begin
      let byte = Char.code (Bytes.get data (i / 8)) in
      Bytes.set data (i / 8) (Char.chr (byte lor (0x80 lsr (i mod 8))))
    end
  done;
  { len; data }

(* OR the first [len] bits of [src] (a packed Bitvec payload: bit 0 is the
   MSB of byte 0, padding bits zero) into [dst] starting at bit [pos]. The
   destination range is assumed still zero — parts are written left to
   right — so byte-aligned sources reduce to one [Bytes.blit] and unaligned
   ones to two shifted ORs per source byte instead of a closure per bit
   (E6 stripes values up to 32768 bits through here). *)
let blit_bits src len dst pos =
  let nbytes = bytes_needed len in
  if pos land 7 = 0 then Bytes.blit src 0 dst (pos / 8) nbytes
  else begin
    let r = pos land 7 in
    let orb j v =
      if v <> 0 then Bytes.set dst j (Char.chr (Char.code (Bytes.get dst j) lor v))
    in
    for k = 0 to nbytes - 1 do
      let v = Char.code (Bytes.get src k) in
      let j = (pos / 8) + k in
      orb j (v lsr r);
      (* Valid bits spilling into the next byte land strictly below
         [pos + len], so [j + 1] stays in range; padding bits are zero and
         are skipped by the [v <> 0] guard. *)
      orb (j + 1) (v lsl (8 - r) land 0xff)
    done
  end

let concat parts =
  let total = List.fold_left (fun acc p -> acc + p.len) 0 parts in
  let data = Bytes.make (bytes_needed total) '\000' in
  let pos = ref 0 in
  List.iter
    (fun p ->
      if p.len > 0 then blit_bits p.data p.len data !pos;
      pos := !pos + p.len)
    parts;
  { len = total; data }

let slice t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Bitvec.slice: out of range";
  let nbytes = bytes_needed len in
  let data = Bytes.make nbytes '\000' in
  (if pos land 7 = 0 then Bytes.blit t.data (pos / 8) data 0 nbytes
   else begin
     (* Stitch each destination byte from two shifted source bytes. *)
     let r = pos land 7 in
     let src_len = Bytes.length t.data in
     for k = 0 to nbytes - 1 do
       let s = (pos / 8) + k in
       let hi = Char.code (Bytes.get t.data s) lsl r land 0xff in
       let lo =
         if s + 1 < src_len then Char.code (Bytes.get t.data (s + 1)) lsr (8 - r)
         else 0
       in
       Bytes.set data k (Char.chr (hi lor lo))
     done
   end);
  clear_padding len data;
  { len; data }

let split t ~parts =
  if parts <= 0 || t.len mod parts <> 0 then
    invalid_arg "Bitvec.split: parts must divide the length";
  let part_len = t.len / parts in
  List.init parts (fun p -> slice t ~pos:(p * part_len) ~len:part_len)

let balanced_sizes ~bits ~parts =
  if parts <= 0 || bits < 0 then invalid_arg "Bitvec.balanced_sizes";
  let base = bits / parts and extra = bits mod parts in
  Array.init parts (fun i -> base + if i < extra then 1 else 0)

let split_balanced t ~parts =
  let sizes = balanced_sizes ~bits:t.len ~parts in
  let pos = ref 0 in
  Array.to_list
    (Array.map
       (fun len ->
         let s = slice t ~pos:!pos ~len in
         pos := !pos + len;
         s)
       sizes)

let to_symbols t ~sym_bits =
  if sym_bits < 1 || sym_bits > 61 then invalid_arg "Bitvec.to_symbols: bad symbol width";
  if t.len mod sym_bits <> 0 then
    invalid_arg "Bitvec.to_symbols: width must divide the length";
  Array.init (t.len / sym_bits) (fun s ->
      let acc = ref 0 in
      for i = 0 to sym_bits - 1 do
        acc := (!acc lsl 1) lor if get t ((s * sym_bits) + i) then 1 else 0
      done;
      !acc)

let of_symbols ~sym_bits syms =
  if sym_bits < 1 || sym_bits > 61 then invalid_arg "Bitvec.of_symbols: bad symbol width";
  let n = Array.length syms in
  init (n * sym_bits) (fun i ->
      let s = i / sym_bits and b = i mod sym_bits in
      syms.(s) lsr (sym_bits - 1 - b) land 1 = 1)

let pad_to t len =
  if len < t.len then invalid_arg "Bitvec.pad_to: shorter than value";
  if len = t.len then t else init len (fun i -> i < t.len && get t i)

let of_string s = init (8 * String.length s) (fun i -> Char.code s.[i / 8] land (0x80 lsr (i mod 8)) <> 0)

let to_hex t =
  String.concat "" (List.init (Bytes.length t.data) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get t.data i))))

let of_hex ~bits s =
  if bits < 0 then invalid_arg "Bitvec.of_hex: negative length";
  let n = bytes_needed bits in
  if String.length s <> 2 * n then invalid_arg "Bitvec.of_hex: digit count does not match bits";
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bitvec.of_hex: not a hex digit"
  in
  let data = Bytes.init n (fun i -> Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1])) in
  let rem = bits mod 8 in
  if rem > 0 && n > 0 && Char.code (Bytes.get data (n - 1)) land (0xff lsr rem) <> 0 then
    invalid_arg "Bitvec.of_hex: padding bits set";
  { len = bits; data }

let pp fmt t = Format.fprintf fmt "<%d bits: %s>" t.len (to_hex t)
