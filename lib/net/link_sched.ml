open Nab_graph

(* One flow's state on one link: its FIFO and its credit in bits. The
   record lives in the link's rotation while the flow has queued traffic
   and is dropped when it drains. *)
type flow = { f_id : int; f_queue : Packet.t Queue.t; mutable f_deficit : float }

type link = {
  l_src : int;
  l_dst : int;
  l_cap : float;
  active : (int, flow) Hashtbl.t; (* flow id -> record, for enqueue *)
  rotation : flow Queue.t; (* flows with queued traffic, activation order *)
}

type t = {
  quantum : float;
  (* By edge id: (src, dst) lexicographic, the deterministic order select
     walks and the order enqueue's binary search relies on. *)
  links : link array;
  mutable n_queued : int;
}

let create ~quantum g =
  if quantum <= 0.0 then invalid_arg "Link_sched.create: quantum must be positive";
  let links =
    List.sort compare (Digraph.edges g)
    |> List.map (fun (src, dst, cap) ->
           {
             l_src = src;
             l_dst = dst;
             l_cap = float_of_int (max 1 cap);
             active = Hashtbl.create 4;
             rotation = Queue.create ();
           })
    |> Array.of_list
  in
  { quantum; links; n_queued = 0 }

let find_link t ~src ~dst =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let l = t.links.(mid) in
      let c = if l.l_src <> src then compare l.l_src src else compare l.l_dst dst in
      if c = 0 then Some l else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t.links)

let enqueue t ~flow ~src ~dst pkt =
  match find_link t ~src ~dst with
  | None ->
      invalid_arg
        (Printf.sprintf "Link_sched.enqueue: no link %d->%d in the graph" src dst)
  | Some l ->
      let fl =
        match Hashtbl.find_opt l.active flow with
        | Some fl -> fl
        | None ->
            let fl = { f_id = flow; f_queue = Queue.create (); f_deficit = 0.0 } in
            Hashtbl.replace l.active flow fl;
            Queue.push fl l.rotation;
            fl
      in
      Queue.push pkt fl.f_queue;
      t.n_queued <- t.n_queued + 1

let deactivate l fl = Hashtbl.remove l.active fl.f_id

let flush_flow t flow =
  Array.iter
    (fun l ->
      match Hashtbl.find_opt l.active flow with
      | None -> ()
      | Some fl ->
          t.n_queued <- t.n_queued - Queue.length fl.f_queue;
          deactivate l fl;
          (* Rebuild the rotation without the flushed flow, preserving the
             relative order of the survivors. *)
          let survivors = Queue.create () in
          Queue.iter (fun f -> if f != fl then Queue.push f survivors) l.rotation;
          Queue.clear l.rotation;
          Queue.transfer survivors l.rotation)
    t.links

let queued t = t.n_queued

(* One DRR pass over a link: each active flow is visited once, its deficit
   topped up by its equal share of the round budget, and affordable
   head-of-line packets are sent while the link budget lasts. Returns the
   link's sends as [(dst, packet)], last sent first. *)
let select_link t l =
  let n_active = Queue.length l.rotation in
  if n_active = 0 then []
  else begin
    let budget0 = l.l_cap *. t.quantum in
    let budget = ref budget0 in
    let share = budget0 /. float_of_int n_active in
    let sent = ref [] in
    let take pkt =
      sent := (l.l_dst, pkt) :: !sent;
      t.n_queued <- t.n_queued - 1
    in
    for _ = 1 to n_active do
      let fl = Queue.pop l.rotation in
      let q = fl.f_queue in
      let d = ref (fl.f_deficit +. share) in
      (* Send while the head packet fits both the flow's credit and the
         link's budget; otherwise keep the credit for the next round. *)
      while
        (not (Queue.is_empty q))
        &&
        let b = float_of_int (Packet.bits (Queue.peek q)) in
        b <= !d && b <= !budget
      do
        let pkt = Queue.pop q in
        let b = float_of_int (Packet.bits pkt) in
        take pkt;
        d := !d -. b;
        budget := !budget -. b
      done;
      if Queue.is_empty q then deactivate l fl
      else begin
        fl.f_deficit <- !d;
        Queue.push fl l.rotation
      end
    done;
    (* Progress rule: a backlogged link never goes silent. When nothing
       fit the budget, force the rotation head's head-of-line packet and
       reset that flow's credit. *)
    if !sent = [] && not (Queue.is_empty l.rotation) then begin
      let fl = Queue.pop l.rotation in
      take (Queue.pop fl.f_queue);
      if Queue.is_empty fl.f_queue then deactivate l fl
      else begin
        fl.f_deficit <- 0.0;
        Queue.push fl l.rotation
      end
    end;
    !sent
  end

(* Links are sorted by source, so each source's sends are one contiguous
   run of links: walk them backwards, prepending, and the outboxes come out
   in ascending source order with each link's packets in send order. *)
let select t =
  let out = ref [] in
  for e = Array.length t.links - 1 downto 0 do
    let l = t.links.(e) in
    match (select_link t l, !out) with
    | [], _ -> ()
    | sent, (src, pkts) :: rest when src = l.l_src ->
        out := (src, List.rev_append sent pkts) :: rest
    | sent, outs -> out := (l.l_src, List.rev sent) :: outs
  done;
  !out
