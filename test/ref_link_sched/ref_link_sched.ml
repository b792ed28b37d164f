(* The per-link scheduler as it was before links moved into an array by
   edge id and each flow's queue, deficit and weight into one record: three
   per-link hashtables, a rotation of flow ids, and a hashtable, appends and
   a sort to build select's outboxes. Kept verbatim below the [open] as the
   reference lib/net/link_sched.ml must match observably: select outputs,
   queued and queued_bits after any script of enqueue, flush_flow and
   select calls. test/test_net.ml runs both side by side. *)

open Nab_net

open Nab_graph

type link = {
  l_src : int;
  l_dst : int;
  l_cap : float;
  flows : (int, Packet.t Queue.t) Hashtbl.t;
  rotation : int Queue.t; (* flows with queued traffic, activation order *)
  deficit : (int, float) Hashtbl.t; (* bits of accumulated credit *)
  weight : (int, int) Hashtbl.t; (* fixed at activation *)
}

type t = {
  quantum : float;
  links : (int * int, link) Hashtbl.t;
  (* (src, dst) lexicographic: the deterministic order select walks. *)
  order : (int * int) array;
  mutable n_queued : int;
  mutable bits_queued : int;
}

let create ?(quantum = 32.0) g =
  if quantum <= 0.0 then invalid_arg "Link_sched.create: quantum must be positive";
  let edges = List.sort compare (Digraph.edges g) in
  let links = Hashtbl.create (List.length edges) in
  List.iter
    (fun (src, dst, cap) ->
      Hashtbl.replace links (src, dst)
        {
          l_src = src;
          l_dst = dst;
          l_cap = float_of_int (max 1 cap);
          flows = Hashtbl.create 4;
          rotation = Queue.create ();
          deficit = Hashtbl.create 4;
          weight = Hashtbl.create 4;
        })
    edges;
  {
    quantum;
    links;
    order = Array.of_list (List.map (fun (s, d, _) -> (s, d)) edges);
    n_queued = 0;
    bits_queued = 0;
  }

let enqueue t ~flow ?(weight = 1) ~src ~dst pkt =
  if weight < 1 then invalid_arg "Link_sched.enqueue: weight must be >= 1";
  match Hashtbl.find_opt t.links (src, dst) with
  | None ->
      invalid_arg
        (Printf.sprintf "Link_sched.enqueue: no link %d->%d in the graph" src dst)
  | Some l ->
      let q =
        match Hashtbl.find_opt l.flows flow with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace l.flows flow q;
            Hashtbl.replace l.deficit flow 0.0;
            Hashtbl.replace l.weight flow weight;
            Queue.push flow l.rotation;
            q
      in
      Queue.push pkt q;
      t.n_queued <- t.n_queued + 1;
      t.bits_queued <- t.bits_queued + Packet.bits pkt

let deactivate l flow =
  Hashtbl.remove l.flows flow;
  Hashtbl.remove l.deficit flow;
  Hashtbl.remove l.weight flow

let flush_flow t flow =
  Hashtbl.iter
    (fun _ l ->
      match Hashtbl.find_opt l.flows flow with
      | None -> ()
      | Some q ->
          Queue.iter
            (fun pkt ->
              t.n_queued <- t.n_queued - 1;
              t.bits_queued <- t.bits_queued - Packet.bits pkt)
            q;
          deactivate l flow;
          (* Rebuild the rotation without the flushed flow, preserving the
             relative order of the survivors. *)
          let survivors = Queue.create () in
          Queue.iter (fun f -> if f <> flow then Queue.push f survivors) l.rotation;
          Queue.clear l.rotation;
          Queue.transfer survivors l.rotation)
    t.links

let queued t = t.n_queued
let queued_bits t = t.bits_queued

(* One DRR pass over a link: each active flow is visited once, its deficit
   topped up by its weighted share of the round budget, and affordable
   head-of-line packets are sent while the link budget lasts. *)
let select_link t l acc =
  let n_active = Queue.length l.rotation in
  if n_active = 0 then acc
  else begin
    let budget0 = l.l_cap *. t.quantum in
    let budget = ref budget0 in
    let total_weight =
      Queue.fold (fun s f -> s + Hashtbl.find l.weight f) 0 l.rotation
    in
    let sent = ref [] in
    let take pkt =
      sent := pkt :: !sent;
      t.n_queued <- t.n_queued - 1;
      t.bits_queued <- t.bits_queued - Packet.bits pkt
    in
    for _ = 1 to n_active do
      let flow = Queue.pop l.rotation in
      let q = Hashtbl.find l.flows flow in
      let w = float_of_int (Hashtbl.find l.weight flow) in
      let d =
        ref (Hashtbl.find l.deficit flow +. (budget0 *. w /. float_of_int total_weight))
      in
      let continue = ref true in
      while
        !continue && not (Queue.is_empty q)
        &&
        let b = float_of_int (Packet.bits (Queue.peek q)) in
        if b <= !d && b <= !budget then true
        else begin
          (if b > !d then () (* keep credit, wait for the next round *));
          continue := false;
          false
        end
      do
        let pkt = Queue.pop q in
        let b = float_of_int (Packet.bits pkt) in
        take pkt;
        d := !d -. b;
        budget := !budget -. b
      done;
      if Queue.is_empty q then deactivate l flow
      else begin
        Hashtbl.replace l.deficit flow !d;
        Queue.push flow l.rotation
      end
    done;
    (* Progress rule: a backlogged link never goes silent. When nothing
       fit the budget, force the rotation head's head-of-line packet and
       reset that flow's credit. *)
    if !sent = [] && not (Queue.is_empty l.rotation) then begin
      let flow = Queue.pop l.rotation in
      let q = Hashtbl.find l.flows flow in
      let pkt = Queue.pop q in
      take pkt;
      if Queue.is_empty q then deactivate l flow
      else begin
        Hashtbl.replace l.deficit flow 0.0;
        Queue.push flow l.rotation
      end
    end;
    match !sent with
    | [] -> acc
    | pkts -> (l.l_src, List.rev_map (fun p -> (l.l_dst, p)) pkts) :: acc
  end

let select t =
  let by_src = Hashtbl.create 16 in
  Array.iter
    (fun key ->
      let l = Hashtbl.find t.links key in
      match select_link t l [] with
      | [] -> ()
      | [ (src, pkts) ] ->
          let prev = try Hashtbl.find by_src src with Not_found -> [] in
          Hashtbl.replace by_src src (prev @ pkts)
      | _ -> assert false)
    t.order;
  (* Deterministic outbox order: ascending source id. *)
  Hashtbl.fold (fun src pkts acc -> (src, pkts) :: acc) by_src []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
