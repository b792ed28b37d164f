type 'm event = 'm Ledger.event = {
  round_no : int;
  ev_phase : string;
  src : int;
  dst : int;
  msg : 'm;
}

type phase_stat = Transport.phase_stat = {
  phase : string;
  rounds : int;
  wall : float;
  bottleneck : float;
  bits_total : int;
  extra : float;
}

type timing = Transport.timing = {
  wall : float;
  pipelined : float;
  phases : phase_stat list;
}

(* Accounting lives in the ledger; Sim adds synchronous delivery. The
   delivered-message semantics (inbox ordering, drop accounting, trace
   sampling) are byte-identical to the pre-compilation implementation;
   test/test_net.ml keeps a verbatim copy of that implementation and
   checks the two differentially on random graphs. *)
type 'm t = {
  l : 'm Ledger.t;
  (* Per destination index: the inbox under construction. Senders are
     scanned in ascending order, so deliveries arrive already grouped by
     sender — groups are appended, messages within a group are consed
     (the pre-rewrite cons-then-stable-sort produced exactly ascending
     sender groups with reverse delivery order inside). *)
  ib_open : bool array; (* a sender group is open *)
  ib_src : int array; (* sender id of the open group *)
  ib_group : (int * 'm) list array; (* open group, consed *)
  ib_done : (int * 'm) list array; (* closed groups, reverse final order *)
  dst_touched : int array;
  mutable n_dst : int;
}

let create ?obs ?keep_events g ~bits =
  let l = Ledger.create ?obs ?keep_events ~who:"Sim.round" g ~bits in
  let nv = Ledger.nv l in
  {
    l;
    ib_open = Array.make nv false;
    ib_src = Array.make nv 0;
    ib_group = Array.make nv [];
    ib_done = Array.make nv [];
    dst_touched = Array.make nv 0;
    n_dst = 0;
  }

let ledger t = t.l

let round t ~phase outbox =
  let l = t.l in
  Ledger.begin_round l ~phase;
  let deliver di src dst msg =
    if not t.ib_open.(di) then begin
      t.ib_open.(di) <- true;
      t.ib_src.(di) <- src;
      t.dst_touched.(t.n_dst) <- di;
      t.n_dst <- t.n_dst + 1
    end
    else if t.ib_src.(di) <> src then begin
      t.ib_done.(di) <- List.rev_append t.ib_group.(di) t.ib_done.(di);
      t.ib_group.(di) <- [];
      t.ib_src.(di) <- src
    end;
    t.ib_group.(di) <- (src, msg) :: t.ib_group.(di);
    Ledger.deliver l src dst msg
  in
  let send src (dst, msg) =
    let e = Ledger.edge_id l src dst in
    if e >= 0 then begin
      Ledger.charge l e msg;
      deliver (Ledger.edge_dst l e) src dst msg
    end
    else Ledger.drop l
  in
  let nv = Ledger.nv l in
  for ui = 0 to nv - 1 do
    let v = Ledger.vertex l ui in
    List.iter (send v) (outbox v)
  done;
  let duration, bits = Ledger.tally l in
  Ledger.end_round l ~duration ~bits;
  (* Materialise the inboxes (the returned closure stays valid across later
     rounds, as before) and reset the scratch arrays for the next round. *)
  let res = Array.make nv [] in
  for i = 0 to t.n_dst - 1 do
    let di = t.dst_touched.(i) in
    res.(di) <- List.rev (List.rev_append t.ib_group.(di) t.ib_done.(di));
    t.ib_open.(di) <- false;
    t.ib_group.(di) <- [];
    t.ib_done.(di) <- []
  done;
  t.n_dst <- 0;
  fun v ->
    let di = Ledger.vertex_index l v in
    if di < 0 then [] else res.(di)

(* Every message arrives in the round that sends it: nothing is ever in
   flight between rounds. *)
let pending_count _ = 0
let drain _ ~phase:_ _ = []

let graph t = Ledger.graph t.l
let obs t = Ledger.obs t.l
let keeps_events t = Ledger.keeps_events t.l
let add_cost t = Ledger.add_cost t.l
let timing t = Ledger.timing t.l
let link_bits t = Ledger.link_bits t.l
let dropped t = Ledger.dropped t.l
let utilization t = Ledger.utilization t.l
let events t = Ledger.events t.l
let events_of_phase t = Ledger.events_of_phase t.l
let rounds_run t = Ledger.rounds_run t.l

(* ------------------------- TRANSPORT packing --------------------------

   The reference backend: a Packet.t-carrying simulator packed behind the
   backend-neutral boundary. Every operation is the simulator's own; only
   the event record is converted (Sim's trace is polymorphic in the
   message type, Transport's is Packet.t-concrete). *)

module Packet_transport = struct
  type nonrec t = Packet.t t

  let graph = graph
  let obs = obs
  let round = round
  let pending_count = pending_count
  let drain = drain
  let add_cost = add_cost
  let timing = timing
  let link_bits = link_bits
  let dropped = dropped
  let utilization = utilization

  let events_of_phase t = Ledger.transport_events t.l
  let keeps_events = keeps_events
  let rounds_run = rounds_run
  let close _ = ()
end

let transport (t : Packet.t t) : Transport.t =
  Transport.pack (module Packet_transport) t

(* The shared default every driver-level [?transport] argument points at,
   so "which backend runs when the caller says nothing" is decided in
   exactly one place. *)
let default_factory : Transport.factory =
 fun ~obs ~keep_events g -> transport (create ~obs ~keep_events g ~bits:Packet.bits)

