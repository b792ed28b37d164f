open Nab_graph
open Nab_net

type adversary =
  me:int -> round:int -> dst:int -> (int list * Wire.payload) list ->
  (int list * Wire.payload) list

let honest ~me:_ ~round:_ ~dst:_ pairs = pairs

(* The value tree is keyed by label codes. A label [v1; ...; vr] has the
   digits pos(v1)+1, ..., pos(vr)+1 in base n+1, where pos is the
   participant's position among the sorted participants: no digit is zero,
   so labels of different lengths never share a code, and a child's code
   is its parent's times the base plus one digit. *)
module Codes = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* A label of the current level: its wire form and its code. *)
type label = { ids : int list; code : int }

let lookup st ~default code =
  match Codes.find_opt st code with Some v -> v | None -> default

let same (a : Wire.payload) b = a == b || Wire.equal a b

(* The strict majority of xs.(0 .. k-1), or [default]. A strict majority
   is unique, so the Boyer-Moore candidate is it whenever one exists. *)
let majority ~default xs k =
  let cand = ref default and votes = ref 0 in
  for i = 0 to k - 1 do
    if !votes = 0 then begin
      cand := xs.(i);
      votes := 1
    end
    else if same xs.(i) !cand then incr votes
    else decr votes
  done;
  let count = ref 0 in
  for i = 0 to k - 1 do
    if same xs.(i) !cand then incr count
  done;
  if 2 * !count > k then !cand else default

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
  let vs = Array.of_list verts in
  let pos v = Vset.position vs v in
  let total_rounds = f + 1 in
  let radix = n + 1 in
  let rec fits k room = k = 0 || (room >= radix && fits (k - 1) (room / radix)) in
  if not (fits total_rounds max_int) then
    invalid_arg "Eig.broadcast_all: label codes exceed the integer range";
  let is_source = Array.make n false in
  List.iter
    (fun (s, _) ->
      let p = pos s in
      if p < 0 then invalid_arg "Eig.broadcast_all: source not a participant";
      is_source.(p) <- true)
    inputs;
  (* Whether position p is a digit of [code]. *)
  let rec in_code code p =
    code > 0 && (code mod radix = p + 1 || in_code (code / radix) p)
  in
  (* The code of a wire label of [len] elements, or -1 unless it is a
     well-formed label of that level: a source, then participants, none
     repeated. *)
  let wire_code label ~len =
    let rec go code k = function
      | [] -> if k = len then code else -1
      | v :: rest ->
          let p = if k < len then pos v else -1 in
          if p < 0 || (k = 0 && not is_source.(p)) || in_code code p then -1
          else go ((code * radix) + p + 1) (k + 1) rest
    in
    go 0 0 label
  in
  let states = Array.init n (fun _ -> Codes.create 64) in
  (* Sources adopt their own input as val(<s>). A faulty source's local tree
     is irrelevant to the guarantees, so this is safe for it too. *)
  List.iter (fun (s, value) -> Codes.replace states.(pos s) (pos s + 1) value) inputs;
  (* Labels of level r (length r) present in any instance: level 1 is the
     instance roots; level r+1 appends any relay not already in the label. *)
  let level1 = List.map (fun (s, _) -> { ids = [ s ]; code = pos s + 1 }) inputs in
  let positions = List.init n Fun.id in
  let extend labels =
    List.concat_map
      (fun label ->
        List.filter_map
          (fun p ->
            if in_code label.code p then None
            else
              Some { ids = label.ids @ [ vs.(p) ]; code = (label.code * radix) + p + 1 })
          positions)
      labels
  in
  let proto = phase ^ ":eig" in
  let rec run_round r labels_prev =
    if r > total_rounds then ()
    else begin
      (* Round r: node i sends val_i(sigma) for each level-(r-1) label sigma
         with i not in sigma... except round 1, where only sources send. *)
      let honest_pairs_for p =
        let i = vs.(p) and st = states.(p) in
        if r = 1 then
          List.filter_map
            (fun (s, _) ->
              if s = i then Some ([ s ], lookup st ~default (p + 1)) else None)
            inputs
        else
          List.filter_map
            (fun label ->
              if in_code label.code p then None
              else Some (label.ids, lookup st ~default label.code))
            labels_prev
      in
      let batch pairs =
        Wire.Batch (List.map (fun (label, body) -> Wire.Labeled { label; body }) pairs)
      in
      let sends =
        List.concat
          (List.mapi
             (fun p i ->
               let own = honest_pairs_for p in
               (* An honest sender's batch is the same for every destination. *)
               let shared = match own with [] -> None | _ -> Some (batch own) in
               List.filter_map
                 (fun j ->
                   if j = i then None
                   else if Vset.mem i faulty then
                     match adversary ~me:i ~round:r ~dst:j own with
                     | [] -> None
                     | pairs -> Some (i, j, batch pairs)
                   else Option.map (fun payload -> (i, j, payload)) shared)
                 verts)
             verts)
      in
      let delivery =
        Reliable.exchange ~net ~phase ~routing ~proto ~faulty ~hooks:reliable_hooks
          ~default:Wire.Nothing ~sends
      in
      (* Store received values: j receiving (sigma, v) from i keeps it as
         val_j(sigma ++ [i]) — except round 1, where the label is <s> as
         sent by s itself. Malformed labels (wrong level, relayer already
         inside, or an unknown instance) are ignored, which is the honest
         parse of a Byzantine payload. *)
      Array.iteri
        (fun pj j ->
          let st = states.(pj) in
          Array.iteri
            (fun pi i ->
              if i <> j then begin
                match Reliable.get delivery ~default:Wire.Nothing ~src:i ~dst:j with
                | Wire.Batch items ->
                    List.iter
                      (fun item ->
                        match item with
                        | Wire.Labeled { label; body } ->
                            let stored =
                              if r = 1 then
                                match label with
                                | [ s ] when s = i && is_source.(pi) -> pi + 1
                                | _ -> -1
                              else
                                let code = wire_code label ~len:(r - 1) in
                                if code < 0 || in_code code pi then -1
                                else (code * radix) + pi + 1
                            in
                            if stored >= 0 && not (Codes.mem st stored) then
                              Codes.replace st stored body
                        | _ -> ())
                      items
                | _ -> ()
              end)
            vs;
          (* A node "relays to itself": val_j(sigma ++ [j]) = val_j(sigma). *)
          if r > 1 then
            List.iter
              (fun label ->
                if not (in_code label.code pj) then
                  Codes.replace st ((label.code * radix) + pj + 1)
                    (lookup st ~default label.code))
              labels_prev)
        vs;
      run_round (r + 1) (if r = 1 then level1 else extend labels_prev)
    end
  in
  run_round 1 level1;
  (* Decision: recursive strict-majority resolve from each instance root.
     children.(d) holds the resolved children of the label being resolved
     at depth d. *)
  let children = Array.init total_rounds (fun _ -> Array.make n default) in
  let decisions = Hashtbl.create 16 in
  Array.iteri
    (fun pj j ->
      let st = states.(pj) in
      let rec resolve code depth =
        if depth = total_rounds then lookup st ~default code
        else begin
          let xs = children.(depth) in
          let k = ref 0 in
          for p = 0 to n - 1 do
            if not (in_code code p) then begin
              xs.(!k) <- resolve ((code * radix) + p + 1) (depth + 1);
              incr k
            end
          done;
          majority ~default xs !k
        end
      in
      List.iter
        (fun (s, _) -> Hashtbl.replace decisions (s, j) (resolve (pos s + 1) 1))
        inputs)
    vs;
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
