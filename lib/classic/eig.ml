open Nab_graph
open Nab_net

type adversary =
  me:int -> round:int -> dst:int -> (int list * Wire.payload) list ->
  (int list * Wire.payload) list

let honest ~me:_ ~round:_ ~dst:_ pairs = pairs

(* Per-node EIG state: the value tree, label -> payload. *)
type node_state = (int list, Wire.payload) Hashtbl.t

let lookup (st : node_state) ~default label =
  match Hashtbl.find_opt st label with Some v -> v | None -> default

let broadcast_all ~net ?nodes ~phase ~routing ~f ~inputs ~default ~faulty
    ?(adversary = honest) ?(reliable_hooks = Reliable.honest_hooks) () =
  let g = Transport.graph net in
  let verts =
    match nodes with None -> Digraph.vertices g | Some vs -> List.sort_uniq compare vs
  in
  let n = List.length verts in
  if n <= 3 * f then invalid_arg "Eig.broadcast_all: requires n > 3f";
  List.iter
    (fun s ->
      if not (Digraph.mem_vertex g s) then
        invalid_arg "Eig.broadcast_all: participant absent from graph")
    (List.map fst inputs @ verts);
  let states : (int, node_state) Hashtbl.t = Hashtbl.create n in
  List.iter (fun v -> Hashtbl.add states v (Hashtbl.create 64)) verts;
  let state v = Hashtbl.find states v in
  (* Sources adopt their own input as val(<s>). A faulty source's local tree
     is irrelevant to the guarantees, so this is safe for it too. *)
  List.iter (fun (s, value) -> Hashtbl.replace (state s) [ s ] value) inputs;
  (* Labels of level r (length r) present in any instance: level 1 is the
     instance roots; level r+1 appends any relay not already in the label. *)
  let level1 = List.map (fun (s, _) -> [ s ]) inputs in
  let extend labels =
    List.concat_map
      (fun label ->
        List.filter_map
          (fun i -> if List.mem i label then None else Some (label @ [ i ]))
          verts)
      labels
  in
  let total_rounds = f + 1 in
  let rec run_round r labels_prev =
    if r > total_rounds then ()
    else begin
      (* Round r: node i sends val_i(sigma) for each level-(r-1) label sigma
         with i not in sigma... except round 1, where only sources send. *)
      let honest_pairs_for i =
        if r = 1 then
          List.filter_map
            (fun (s, _) ->
              if s = i then Some ([ s ], lookup (state i) ~default [ s ]) else None)
            inputs
        else
          List.filter_map
            (fun label ->
              if List.mem i label then None
              else Some (label, lookup (state i) ~default label))
            labels_prev
      in
      let sends =
        List.concat_map
          (fun i ->
            let base = honest_pairs_for i in
            List.filter_map
              (fun j ->
                if j = i then None
                else begin
                  let pairs =
                    if Vset.mem i faulty then adversary ~me:i ~round:r ~dst:j base
                    else base
                  in
                  match pairs with
                  | [] -> None
                  | _ ->
                      let payload =
                        Wire.Batch
                          (List.map
                             (fun (label, body) -> Wire.Labeled { label; body })
                             pairs)
                      in
                      Some (i, j, payload)
                end)
              verts)
          verts
      in
      let delivery =
        Reliable.exchange ~net ~phase ~routing ~proto:(phase ^ ":eig") ~faulty
          ~hooks:reliable_hooks ~default:Wire.Nothing ~sends
      in
      (* Store received values: j receiving (sigma, v) from i keeps it as
         val_j(sigma ++ [i]) — except round 1, where the label is <s> as
         sent by s itself. Malformed labels (wrong level, relayer already
         inside, or an unknown instance) are ignored, which is the honest
         parse of a Byzantine payload: [known] holds exactly the
         well-formed labels of this level, so one lookup rejects them all. *)
      let labels_now = if r = 1 then level1 else extend labels_prev in
      let known = Hashtbl.create (List.length labels_now) in
      List.iter (fun label -> Hashtbl.replace known label ()) labels_now;
      List.iter
        (fun j ->
          List.iter
            (fun i ->
              if i <> j then begin
                match Reliable.get delivery ~default:Wire.Nothing ~src:i ~dst:j with
                | Wire.Batch items ->
                    List.iter
                      (fun item ->
                        match item with
                        | Wire.Labeled { label; body } ->
                            let stored_label = if r = 1 then label else label @ [ i ] in
                            let valid =
                              (r > 1 || label = [ i ]) && Hashtbl.mem known stored_label
                            in
                            if valid && not (Hashtbl.mem (state j) stored_label) then
                              Hashtbl.replace (state j) stored_label body
                        | _ -> ())
                      items
                | _ -> ()
              end)
            verts;
          (* A node "relays to itself": val_j(sigma ++ [j]) = val_j(sigma). *)
          if r > 1 then
            List.iter
              (fun label ->
                if not (List.mem j label) then
                  Hashtbl.replace (state j) (label @ [ j ])
                    (lookup (state j) ~default label))
              labels_prev)
        verts;
      run_round (r + 1) labels_now
    end
  in
  run_round 1 level1;
  (* Decision: recursive strict-majority resolve from each instance root. *)
  let decisions = Hashtbl.create 16 in
  List.iter
    (fun j ->
      let st = state j in
      let rec resolve label =
        if List.length label = total_rounds then lookup st ~default label
        else begin
          let children =
            List.filter_map
              (fun i -> if List.mem i label then None else Some (resolve (label @ [ i ])))
              verts
          in
          let counts =
            List.fold_left
              (fun acc v ->
                match List.assoc_opt v acc with
                | Some k -> (v, k + 1) :: List.remove_assoc v acc
                | None -> (v, 1) :: acc)
              [] children
          in
          let total = List.length children in
          match List.find_opt (fun (_, k) -> 2 * k > total) counts with
          | Some (v, _) -> v
          | None -> default
        end
      in
      List.iter (fun (s, _) -> Hashtbl.replace decisions (s, j) (resolve [ s ])) inputs)
    verts;
  decisions

let broadcast ~net ?nodes ~phase ~routing ~f ~source ~value ~default ~faulty
    ?adversary ?reliable_hooks () =
  let decisions =
    broadcast_all ~net ?nodes ~phase ~routing ~f ~inputs:[ (source, value) ] ~default
      ~faulty ?adversary ?reliable_hooks ()
  in
  let verts =
    match nodes with
    | None -> Nab_graph.Digraph.vertices (Transport.graph net)
    | Some vs -> List.sort_uniq compare vs
  in
  List.map (fun v -> (v, Hashtbl.find decisions (source, v))) verts
