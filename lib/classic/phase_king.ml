open Nab_graph
open Nab_net

type adversary =
  me:int -> phase_no:int -> round:int -> dst:int -> (int * Wire.payload) list ->
  (int * Wire.payload) list

let honest ~me:_ ~phase_no:_ ~round:_ ~dst:_ pairs = pairs

(* Encode per-instance values as Labeled{[source]; body} inside a Batch. *)
let encode pairs =
  Wire.Batch (List.map (fun (s, body) -> Wire.Labeled { label = [ s ]; body }) pairs)

let decode sources payload =
  match payload with
  | Wire.Batch items ->
      List.filter_map
        (fun item ->
          match item with
          | Wire.Labeled { label = [ s ]; body } when List.mem s sources -> Some (s, body)
          | _ -> None)
        items
  | _ -> []

let most_frequent ~default values =
  let counts =
    List.fold_left
      (fun acc v ->
        match List.assoc_opt v acc with
        | Some k -> (v, k + 1) :: List.remove_assoc v acc
        | None -> (v, 1) :: acc)
      [] values
  in
  match counts with
  | [] -> (default, 0)
  | _ ->
      (* Deterministic tie-break on the payload itself. *)
      List.fold_left
        (fun (bv, bk) (v, k) -> if k > bk || (k = bk && compare v bv < 0) then (v, k) else (bv, bk))
        (List.hd counts) (List.tl counts)

let broadcast_all ~net ?nodes ~phase ~routing ~f ~inputs ~default ~faulty
    ?(adversary = honest) ?(reliable_hooks = Reliable.honest_hooks) () =
  let g = Transport.graph net in
  let verts =
    match nodes with None -> Digraph.vertices g | Some vs -> List.sort_uniq compare vs
  in
  let n = List.length verts in
  if n <= 4 * f then invalid_arg "Phase_king.broadcast_all: requires n > 4f";
  let sources = List.map fst inputs in
  (* prefs.(instance source, node) *)
  let prefs : (int * int, Wire.payload) Hashtbl.t = Hashtbl.create 32 in
  let pref s v = match Hashtbl.find_opt prefs (s, v) with Some p -> p | None -> default in
  let set_pref s v p = Hashtbl.replace prefs (s, v) p in
  (* One logical exchange: [pairs_for me dst] gives honest (source, value)
     pairs; adversary may rewrite for faulty senders. Returns delivery. *)
  let exchange_round ~phase_no ~round ~senders ~pairs_for =
    let sends =
      List.concat_map
        (fun i ->
          List.filter_map
            (fun j ->
              if j = i then None
              else begin
                let base = pairs_for i j in
                let pairs =
                  if Vset.mem i faulty then adversary ~me:i ~phase_no ~round ~dst:j base
                  else base
                in
                match pairs with [] -> None | _ -> Some (i, j, encode pairs)
              end)
            verts)
        senders
    in
    Reliable.exchange ~net ~phase ~routing ~proto:(phase ^ ":pk") ~faulty
      ~hooks:reliable_hooks ~default:Wire.Nothing ~sends
  in
  (* Round 0: every source disseminates its input. *)
  List.iter (fun (s, v) -> set_pref s s v) inputs;
  let d0 =
    exchange_round ~phase_no:0 ~round:0 ~senders:sources ~pairs_for:(fun i j ->
        if List.mem_assoc i inputs && i <> j then [ (i, List.assoc i inputs) ] else [])
  in
  List.iter
    (fun j ->
      List.iter
        (fun s ->
          if s <> j then begin
            let received = decode sources (Reliable.get d0 ~default:Wire.Nothing ~src:s ~dst:j) in
            set_pref s j (match List.assoc_opt s received with Some v -> v | None -> default)
          end)
        sources)
    verts;
  (* f+1 phases of (all-to-all, king). Kings are the first f+1 vertices. *)
  let kings = List.filteri (fun i _ -> i <= f) verts in
  List.iteri
    (fun idx king ->
      let phase_no = idx + 1 in
      (* Round 1: all-to-all preference exchange, all instances batched. *)
      let d1 =
        exchange_round ~phase_no ~round:1 ~senders:verts ~pairs_for:(fun i _j ->
            List.map (fun s -> (s, pref s i)) sources)
      in
      (* Each node tallies per instance; remember (maj, mult). *)
      let tally = Hashtbl.create 32 in
      List.iter
        (fun j ->
          List.iter
            (fun s ->
              let received =
                List.filter_map
                  (fun i ->
                    if i = j then Some (pref s j)
                    else
                      decode sources (Reliable.get d1 ~default:Wire.Nothing ~src:i ~dst:j)
                      |> List.assoc_opt s)
                  verts
              in
              Hashtbl.replace tally (s, j) (most_frequent ~default received))
            sources)
        verts;
      (* Round 2: the king sends its majority value per instance. *)
      let d2 =
        exchange_round ~phase_no ~round:2 ~senders:[ king ] ~pairs_for:(fun i _j ->
            if i = king then List.map (fun s -> (s, fst (Hashtbl.find tally (s, i)))) sources
            else [])
      in
      List.iter
        (fun j ->
          let king_vals =
            if j = king then List.map (fun s -> (s, fst (Hashtbl.find tally (s, j)))) sources
            else decode sources (Reliable.get d2 ~default:Wire.Nothing ~src:king ~dst:j)
          in
          List.iter
            (fun s ->
              let maj, mult = Hashtbl.find tally (s, j) in
              if 2 * mult > n + (2 * f) then set_pref s j maj
              else
                set_pref s j
                  (match List.assoc_opt s king_vals with Some v -> v | None -> default))
            sources)
        verts)
    kings;
  let decisions = Hashtbl.create 32 in
  List.iter
    (fun j -> List.iter (fun s -> Hashtbl.replace decisions (s, j) (pref s j)) sources)
    verts;
  decisions
