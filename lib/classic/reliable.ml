open Nab_graph
open Nab_net

type hooks = {
  originate : me:int -> dst:int -> path:int list -> Wire.payload -> Wire.payload option;
  forward : me:int -> Packet.t -> Packet.t option;
  inject : me:int -> subround:int -> Packet.t list;
}

let honest_hooks =
  {
    originate = (fun ~me:_ ~dst:_ ~path:_ p -> Some p);
    forward = (fun ~me:_ p -> Some p);
    inject = (fun ~me:_ ~subround:_ -> []);
  }

type delivery = (int * int, Wire.payload) Hashtbl.t

(* Position helpers on a route (a vertex list), monomorphic: every relay
   hop of every flag batch runs them. *)
let predecessor (route : int list) (me : int) =
  let rec go = function
    | a :: b :: _ when b = me -> Some a
    | _ :: rest -> go rest
    | [] -> None
  in
  go route

let successor (route : int list) (me : int) =
  let rec go = function
    | a :: b :: _ when a = me -> Some b
    | _ :: rest -> go rest
    | [] -> None
  in
  go route

let rec last (route : int list) =
  match route with
  | [ v ] -> v
  | _ :: rest -> last rest
  | [] -> invalid_arg "Reliable.last: empty route"

let same_route = List.equal Int.equal

let exchange ~net ~phase ~routing ~proto ~faulty ~hooks ~default ~sends =
  let g = Transport.graph net in
  let verts = Digraph.vertices g in
  (* Validate sends: at most one per ordered pair, endpoints in graph. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (s, d, _) ->
      if s = d then invalid_arg "Reliable.exchange: self-send";
      if Hashtbl.mem seen (s, d) then
        invalid_arg "Reliable.exchange: duplicate send for a pair (use Wire.Batch)";
      Hashtbl.add seen (s, d) ())
    sends;
  (* Copies accepted by final recipients: (origin, dst) -> route -> payload. *)
  let copies : (int * int, (int list * Wire.payload) list) Hashtbl.t = Hashtbl.create 32 in
  let record_copy ~origin ~dst ~route payload =
    let key = (origin, dst) in
    let existing = try Hashtbl.find copies key with Not_found -> [] in
    if not (List.exists (fun (r, _) -> same_route r route) existing) then
      Hashtbl.replace copies key ((route, payload) :: existing)
  in
  (* Packets queued for sending by each node in the next subround. *)
  let pending : (int, Packet.t list) Hashtbl.t = Hashtbl.create 16 in
  let enqueue v p =
    Hashtbl.replace pending v (p :: (try Hashtbl.find pending v with Not_found -> []))
  in
  (* Initial emission. *)
  List.iter
    (fun (src, dst, payload) ->
      let routes = Routing.paths routing ~src ~dst in
      List.iter
        (fun route ->
          let payload =
            if Vset.mem src faulty then hooks.originate ~me:src ~dst ~path:route payload
            else Some payload
          in
          match payload with
          | None -> ()
          | Some payload ->
              let pkt = { Packet.proto; origin = src; final_dst = dst; route; payload } in
              enqueue src pkt)
        routes)
    sends;
  let accept_packet ~me ~sender (pkt : Packet.t) =
    (* Honest validation: the route must be in the common table, the packet
       must arrive from my predecessor on it, and I must be on the route. *)
    pkt.proto = proto
    && Routing.is_route routing ~src:pkt.origin ~dst:pkt.final_dst pkt.route
    && predecessor pkt.route me = Some sender
  in
  let n_subrounds = Routing.max_path_len routing in
  for subround = 1 to n_subrounds do
    let outbox v =
      let mine = try Hashtbl.find pending v with Not_found -> [] in
      Hashtbl.remove pending v;
      let routed =
        List.filter_map
          (fun (pkt : Packet.t) ->
            match successor pkt.route v with
            | None -> None
            | Some nxt -> Some (nxt, pkt))
          mine
      in
      let injected =
        if Vset.mem v faulty then
          List.filter_map
            (fun (pkt : Packet.t) ->
              match successor pkt.route v with None -> None | Some nxt -> Some (nxt, pkt))
            (hooks.inject ~me:v ~subround)
        else []
      in
      routed @ injected
    in
    let inbox = Transport.round net ~phase outbox in
    List.iter
      (fun v ->
        List.iter
          (fun (sender, (pkt : Packet.t)) ->
            if accept_packet ~me:v ~sender pkt then begin
              if last pkt.route = v then
                record_copy ~origin:pkt.origin ~dst:v ~route:pkt.route pkt.payload
              else if Vset.mem v faulty then begin
                match hooks.forward ~me:v pkt with
                | None -> ()
                | Some pkt' -> enqueue v pkt'
              end
              else enqueue v pkt
            end)
          (inbox v))
      verts
  done;
  (* Majority decode per (origin, dst): with 2f+1 node-disjoint routes and at
     most f faulty nodes, an honest origin's payload arrives intact on at
     least f+1 routes, so plurality recovers it. *)
  let result : delivery = Hashtbl.create 32 in
  Hashtbl.iter
    (fun key route_copies ->
      let values = List.map snd route_copies in
      let counts =
        List.fold_left
          (fun acc v ->
            match List.assoc_opt v acc with
            | Some k -> (v, k + 1) :: List.remove_assoc v acc
            | None -> (v, 1) :: acc)
          [] values
      in
      let best =
        List.fold_left
          (fun (bv, bk) (v, k) -> if k > bk then (v, k) else (bv, bk))
          (default, 0) (List.rev counts)
      in
      let tied = List.filter (fun (_, k) -> k = snd best) counts in
      let value = if List.length tied > 1 then default else fst best in
      Hashtbl.replace result key value)
    copies;
  result

let get delivery ~default ~src ~dst =
  match Hashtbl.find_opt delivery (src, dst) with Some p -> p | None -> default
