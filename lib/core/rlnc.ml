open Nab_field
open Nab_matrix
open Nab_graph
open Nab_net

type result = {
  decoded : (int * Bitvec.t option) list;
  rounds : int;
  all_decoded : bool;
  wall_time : float;
  payload_bits : int;
  header_bits : int;
}

(* A coded row: gamma coefficients followed by the combined payload symbols
   in one flat buffer over GF(2^m) — exactly the wire layout of the Coded
   vector, so encode/decode is offset arithmetic, not copying. Buffered rows
   additionally cache their pivot (leading coefficient) column and value,
   fixed at insertion time: rows are never mutated once buffered. *)
type coded = { data : int array; pivot : int; pivot_val : int }

(* Per-node buffer: rows in insertion (prepend) order for combination and
   decoding, plus an O(1) pivot-column index for insertion. *)
type buffer = { mutable rows : coded list; by_pivot : coded option array }

let proto = "rlnc"

let broadcast ~net ~phase ~source ~value ~gamma ~m ~seed () =
  let g = Transport.graph net in
  let verts = Digraph.vertices g in
  let n = List.length verts in
  let l = Bitvec.length value in
  if gamma < 1 then invalid_arg "Rlnc.broadcast: gamma must be positive";
  if l <= 0 || l mod (gamma * m) <> 0 then
    invalid_arg "Rlnc.broadcast: value length must be a positive multiple of gamma * m";
  let fld = Gf2p.create m in
  let ker = Kernel.of_field fld in
  let st = Random.State.make [| seed; 0x12a9c; gamma; m |] in
  let max_rounds = 4 * (n + gamma) in
  (* The generation: gamma source symbols, each a row of payload length
     l / (gamma * m) sub-symbols. *)
  let payload_syms = l / (gamma * m) in
  let total = gamma + payload_syms in
  let slices = Array.of_list (Bitvec.split value ~parts:gamma) in
  (* The source's generation as coded rows: unit coefficient i, payload
     slice i. Built once — combination only reads them. *)
  let source_rows =
    Array.to_list
      (Array.mapi
         (fun i s ->
           let data = Array.make total 0 in
           data.(i) <- 1;
           Array.blit (Bitvec.to_symbols s ~sym_bits:m) 0 data gamma payload_syms;
           { data; pivot = i; pivot_val = 1 })
         slices)
  in
  (* Per-node buffer of innovative packets (kept in echelon form over the
     coefficient part so rank queries are O(1)). *)
  let buffers : (int, buffer) Hashtbl.t = Hashtbl.create n in
  List.iter
    (fun v ->
      Hashtbl.replace buffers v { rows = []; by_pivot = Array.make gamma None })
    verts;
  let rank v = List.length (Hashtbl.find buffers v).rows in
  (* Insert with on-line Gaussian elimination. Buffer rows keep pairwise
     distinct pivot columns, so rank = length and the coefficient matrix of
     a full-rank buffer is always invertible. Returns true if innovative.
     Takes ownership of [data] (a fresh copy of the wire payload).

     Reduction invariant: a buffered row's entries below its pivot column
     are zero, and so are the packet's once the scan has passed them — so
     each elimination step is one fused axpy over the [pivot, total) tail,
     and the leading-coefficient rescan resumes where it left off instead of
     restarting from column 0. *)
  let insert v data =
    let buf = Hashtbl.find buffers v in
    let rec go i =
      if i >= gamma then false
      else if data.(i) = 0 then go (i + 1)
      else
        match buf.by_pivot.(i) with
        | None ->
            let row = { data; pivot = i; pivot_val = data.(i) } in
            buf.rows <- row :: buf.rows;
            buf.by_pivot.(i) <- Some row;
            true
        | Some row ->
            let factor = Kernel.div ker data.(i) row.pivot_val in
            Kernel.axpy ker ~a:factor ~x:row.data ~xoff:i ~y:data ~yoff:i
              ~len:(total - i);
            go (i + 1)
    in
    go 0
  in
  (* Random combination of a node's knowledge space. The source combines the
     original generation directly. *)
  let combine v =
    let rows = if v = source then source_rows else (Hashtbl.find buffers v).rows in
    match rows with
    | [] -> None
    | _ ->
        let acc = Array.make total 0 in
        List.iter
          (fun row ->
            let a = Gf2p.random fld st in
            if a <> 0 then Kernel.axpy_row ker ~a ~x:row.data ~y:acc)
          rows;
        let rec all_zero i = i = gamma || (acc.(i) = 0 && all_zero (i + 1)) in
        if all_zero 0 then None else Some acc
  in
  let header_bits = ref 0 in
  let payload_bits = ref 0 in
  let rounds = ref 0 in
  let everyone_done () = List.for_all (fun v -> v = source || rank v = gamma) verts in
  while (not (everyone_done ())) && !rounds < max_rounds do
    incr rounds;
    let outbox v =
      if v <> source && rank v = 0 then []
      else
        List.concat_map
          (fun (dst, cap) ->
            List.filter_map
              (fun _ ->
                match combine v with
                | None -> None
                | Some data ->
                    (* The combined row already has the wire layout. *)
                    header_bits := !header_bits + (gamma * m);
                    payload_bits := !payload_bits + (payload_syms * m);
                    Some (dst, Packet.direct ~proto ~origin:v ~dst (Wire.Coded { sym_bits = m; data })))
              (List.init cap Fun.id))
          (Digraph.out_edges g v)
    in
    let inbox = Transport.round net ~phase outbox in
    List.iter
      (fun v ->
        if v <> source then
          List.iter
            (fun (_, (pkt : Packet.t)) ->
              match pkt.Packet.payload with
              | Wire.Coded { sym_bits; data } when sym_bits = m && Array.length data = total ->
                  (* One defensive copy — insert takes ownership and reduces
                     in place, by offset; no coeff/payload re-slicing. *)
                  ignore (insert v (Array.copy data))
              | _ -> ())
            (inbox v))
      verts
  done;
  (* Decode: solve coeffs * X = payloads. *)
  let decode v =
    if v = source then Some value
    else if rank v < gamma then None
    else begin
      let rows = Array.of_list (Hashtbl.find buffers v).rows in
      (* Buffered rows already hold the wire layout [coeffs | payload], so
         the two solver operands are straight blits into flat row-major
         buffers — no per-element closure over gamma * payload_syms cells. *)
      let craw = Array.make (gamma * gamma) 0 in
      let praw = Array.make (gamma * payload_syms) 0 in
      for i = 0 to gamma - 1 do
        Array.blit rows.(i).data 0 craw (i * gamma) gamma;
        Array.blit rows.(i).data gamma praw (i * payload_syms) payload_syms
      done;
      let cmat = Matrix.of_raw ~rows:gamma ~cols:gamma craw in
      let pmat = Matrix.of_raw ~rows:gamma ~cols:payload_syms praw in
      match Gauss.inverse fld cmat with
      | None -> None
      | Some ci ->
          let x = Matrix.mul fld ci pmat in
          let slices =
            List.init gamma (fun i -> Bitvec.of_symbols ~sym_bits:m (Matrix.row x i))
          in
          Some (Bitvec.concat slices)
    end
  in
  let decoded = List.map (fun v -> (v, decode v)) verts in
  {
    decoded;
    rounds = !rounds;
    all_decoded = List.for_all (fun (_, d) -> d <> None) decoded;
    wall_time = (Transport.timing net).Transport.wall;
    payload_bits = !payload_bits;
    header_bits = !header_bits;
  }
