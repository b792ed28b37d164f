open Nab_graph
open Nab_net

let proto = "p1"
let tree_proto t = Printf.sprintf "%s:%d" proto t

type adversary = me:int -> tree:int -> dst:int -> Wire.payload -> Wire.payload option

let honest ~me:_ ~tree:_ ~dst:_ p = Some p

let slice_payload bv =
  let bits = Bitvec.length bv in
  let padded_bits = (bits + 7) / 8 * 8 in
  Wire.Value { bits; data = Bitvec.to_symbols (Bitvec.pad_to bv padded_bits) ~sym_bits:8 }

let payload_slice ~slice_bits = function
  | Some (Wire.Value { bits; data })
    when bits = slice_bits && Array.length data = (bits + 7) / 8
         && Array.for_all (fun b -> b >= 0 && b < 256) data ->
      Bitvec.slice (Bitvec.of_symbols ~sym_bits:8 data) ~pos:0 ~len:bits
  | Some _ | None -> Bitvec.create slice_bits

let expected_forward ~slice_bits ~received =
  slice_payload (payload_slice ~slice_bits received)

let slice_sizes ~value_bits ~trees = Bitvec.balanced_sizes ~bits:value_bits ~parts:trees

let assemble ~slice_sizes per_tree =
  if Array.length slice_sizes <> Array.length per_tree then
    invalid_arg "Phase1.assemble: size/tree count mismatch";
  Bitvec.concat
    (List.mapi
       (fun t p -> payload_slice ~slice_bits:slice_sizes.(t) p)
       (Array.to_list per_tree))

(* Instrumentation: one span per Phase-1 execution, timestamped in
   simulated time, tagged with the tree count and payload width. *)
let span net ~phase ~trees ~bits which f =
  let obs = Transport.obs net in
  if not (Nab_obs.enabled obs) then f ()
  else begin
    let now () = (Transport.timing net).Transport.wall in
    let attrs =
      [ ("phase", Nab_obs.S phase); ("trees", Nab_obs.I trees); ("bits", Nab_obs.I bits) ]
    in
    Nab_obs.span_begin obs ~scope:"proto" ~t:(now ()) ~attrs which;
    let r = f () in
    Nab_obs.span_end obs ~scope:"proto" ~t:(now ()) which;
    r
  end

type schedule = {
  trees : Arborescence.tree array;
  verts : int array;
  depth : int array array;
  sizes : int array;
  max_depth : int;
}

let schedule ~trees ~source ~value_bits =
  let trees = Array.of_list trees in
  let by_depth = Array.map (fun t -> Arborescence.vertices_by_depth t ~root:source) trees in
  let verts =
    Array.of_list
      (List.sort_uniq compare
         (List.concat_map (List.map fst) (Array.to_list by_depth)))
  in
  let depth =
    Array.map
      (fun vds ->
        let a = Array.make (Array.length verts) (-1) in
        List.iter (fun (v, d) -> a.(Vset.position verts v) <- d) vds;
        a)
      by_depth
  in
  {
    trees;
    verts;
    depth;
    sizes = slice_sizes ~value_bits ~trees:(Array.length trees);
    max_depth = Array.fold_left (Array.fold_left max) 0 depth;
  }

let step s ~faulty ~adversary ~round ~me ~received ~emit =
  let p = Vset.position s.verts me in
  for t = 0 to Array.length s.trees - 1 do
    if p >= 0 && s.depth.(t).(p) = round - 1 then begin
      let payload = expected_forward ~slice_bits:s.sizes.(t) ~received:(received t) in
      List.iter
        (fun dst ->
          if not (Vset.mem me faulty) then emit t dst payload
          else
            match adversary ~me ~tree:t ~dst payload with
            | Some p -> emit t dst p
            | None -> ())
        (Arborescence.children s.trees.(t) me)
    end
  done

let run ~net ~phase ~trees ~source ~value ~faulty ?(adversary = honest) () =
  let g = Transport.graph net in
  let verts = Digraph.vertices g in
  let n_trees = List.length trees in
  if n_trees = 0 then invalid_arg "Phase1.run: no trees";
  span net ~phase ~trees:n_trees ~bits:(Bitvec.length value) "phase1" @@ fun () ->
  let s = schedule ~trees ~source ~value_bits:(Bitvec.length value) in
  let slices = Array.of_list (Bitvec.split_balanced value ~parts:n_trees) in
  (* received.(tree) : node -> payload option *)
  let received = Array.init n_trees (fun _ -> Hashtbl.create 8) in
  Array.iteri
    (fun t tbl -> Hashtbl.replace tbl source (slice_payload slices.(t)))
    received;
  let absorb inbox =
    List.iter
      (fun v ->
        List.iter
          (fun (sender, (pkt : Packet.t)) ->
            (* Accept a slice only from the tree parent. *)
            List.iteri
              (fun t tbl ->
                if
                  pkt.proto = tree_proto t
                  && Arborescence.parent s.trees.(t) v = Some sender
                  && not (Hashtbl.mem tbl v)
                then Hashtbl.replace tbl v pkt.payload)
              (Array.to_list received))
          (inbox v))
      verts
  in
  for round = 1 to s.max_depth do
    let outbox v =
      let sends = ref [] in
      step s ~faulty ~adversary ~round ~me:v
        ~received:(fun t -> Hashtbl.find_opt received.(t) v)
        ~emit:(fun t dst p ->
          sends := (dst, Packet.direct ~proto:(tree_proto t) ~origin:v ~dst p) :: !sends);
      List.rev !sends
    in
    absorb (Transport.round net ~phase outbox)
  done;
  (* On a backend with latency the schedule can end with slices still in
     flight (a hop that lands past round [max_depth]); drain the fabric so
     final-hop deliveries are not silently dropped. *)
  if Transport.pending_count net > 0 then absorb (Transport.drain net ~phase);
  fun v -> Array.map (fun tbl -> Hashtbl.find_opt tbl v) received
