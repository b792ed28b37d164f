open Nab_graph
open Nab_net

exception Stalled of int

let () =
  Printexc.register_printer (function
    | Stalled n ->
        Some (Printf.sprintf "Nab_stream.Stalled: %d instance(s) undelivered" n)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Protos: instance-tagged so many in-flight broadcasts share one      *)
(* transport. The epoch tags rollback generations — packets of a       *)
(* cancelled generation still in flight are recognised and ignored.    *)

let p1_proto ~k ~epoch ~tree = Printf.sprintf "sp1:%d:%d:%d" k epoch tree
let ec_proto ~k ~epoch = Printf.sprintf "sec:%d:%d" k epoch

type label =
  | Slice of { k : int; epoch : int; tree : int }
  | Symbols of { k : int; epoch : int }
  | Foreign (* control traffic, other protocols, malformed labels *)

(* The end of the run of 1 to 18 decimal digits at [i] in [p] (so a field
   never overflows), if the run is followed by ':' — or ends [p] when
   [last]; -1 otherwise. *)
let field_end p i ~last =
  let n = String.length p in
  let j = ref i in
  while !j < n && !j - i < 18 && p.[!j] >= '0' && p.[!j] <= '9' do
    incr j
  done;
  if !j = i then -1
  else if last then if !j = n then !j else -1
  else if !j < n && p.[!j] = ':' then !j
  else -1

let number p i j =
  let v = ref 0 in
  for x = i to j - 1 do
    v := (!v * 10) + Char.code p.[x] - Char.code '0'
  done;
  !v

(* Read in place: every delivered packet's label passes through here. *)
let parse_proto p =
  if String.starts_with ~prefix:"sp1:" p then
    let a = field_end p 4 ~last:false in
    let b = if a < 0 then -1 else field_end p (a + 1) ~last:false in
    let c = if b < 0 then -1 else field_end p (b + 1) ~last:true in
    if c < 0 then Foreign
    else Slice { k = number p 4 a; epoch = number p (a + 1) b; tree = number p (b + 1) c }
  else if String.starts_with ~prefix:"sec:" p then
    let a = field_end p 4 ~last:false in
    let b = if a < 0 then -1 else field_end p (a + 1) ~last:true in
    if b < 0 then Foreign else Symbols { k = number p 4 a; epoch = number p (a + 1) b }
  else Foreign

(* ------------------------------------------------------------------ *)
(* The value-independent shape of an instance on one plan and source:
   the Phase-1 schedule (which holds the tree array), each tree's
   children and each node's G_k out-neighbours, all by vertex position.
   Built on the first admission that needs it and shared by every later
   instance on the same plan. *)

type shape = {
  s_plan : Nab.graph_plan;
  s_source : int;
  s_sched : Phase1.schedule;
  s_verts : int array; (* G_k, ascending: position i is vertex s_verts.(i) *)
  s_children : int list array; (* tree * n + position -> children's positions *)
  s_out : int list array; (* position -> G_k out-neighbours' positions *)
}

let n_of sh = Array.length sh.s_verts

(* -1 when v is not in G_k. *)
let pos sh v = Vset.position sh.s_verts v

let make_shape (ins : Nab.instance) =
  let plan = ins.Nab.ins_plan and gk = ins.Nab.ins_gk in
  let sched =
    Phase1.schedule ~trees:plan.Nab.plan_trees ~source:ins.Nab.ins_source
      ~value_bits:ins.Nab.ins_value_bits
  in
  let verts = Array.of_list (Digraph.vertices gk) in
  let n = Array.length verts in
  let trees = sched.Phase1.trees in
  let positions = List.map (Vset.position verts) in
  {
    s_plan = plan;
    s_source = ins.Nab.ins_source;
    s_sched = sched;
    s_verts = verts;
    s_children =
      Array.init (Array.length trees * n) (fun i ->
          positions (Arborescence.children trees.(i / n) verts.(i mod n)));
    s_out = Array.map (fun v -> positions (List.map fst (Digraph.out_edges gk v))) verts;
  }

(* ------------------------------------------------------------------ *)
(* Per-instance transcript: the full protocol content of one broadcast
   instance on G_k — every Phase-1/EC send (computed by the serial
   driver's own forward and send rules, in its round order), each node's
   assembled value and MISMATCH flag. Computing it eagerly at admission
   decouples the decision plane from the data plane (when the bits
   actually move). The per-node claim transcripts dispute control
   broadcasts are derived from it only when dispute control runs
   ({!claims_of}). *)

type transcript = {
  t_ins : Nab.instance;
  t_shape : shape;
  (* tree * n + position: what the node holds on that tree — the source's
     own slices, and otherwise the slice its tree parent sent. A node has
     one parent per tree, so [Some] here is exactly "the parent sent". *)
  t_recv : Wire.payload option array;
  t_p1_sends : (int * int * int * Wire.payload) list; (* (tree, src, dst, p), last first *)
  t_ec_sends : Wire.payload option array; (* src position * n + dst position *)
  t_assembled : Bitvec.t array; (* by position *)
  t_flags : bool array; (* by position; empty when reduced to Phase 1 *)
}

type status =
  | Streaming of transcript
  | Data_done of transcript
  | Absent (* the source is excluded from G_k: agree on the default *)

type instance = {
  i_k : int;
  i_source : int;
  i_input : Bitvec.t; (* raw submission, re-padded on rollback *)
  mutable i_status : status;
  mutable i_epoch : int;
  mutable i_unsettled : int; (* tree-edge deliveries outstanding *)
  mutable i_node_wait : int array; (* by position: parent edges unsettled *)
  mutable i_ec_outstanding : int;
  mutable i_admit_wall : float;
  (* This launch's wire labels: per tree, and the equality check's. *)
  mutable i_p1_protos : string array;
  mutable i_ec_proto : string;
}

type t = {
  ses : Nab.session;
  net : Transport.t;
  sched : Link_sched.t;
  window : int;
  flag_batch : int;
  mutable epoch : int;
  mutable next_submit : int; (* id of the next submitted value *)
  mutable next_fin : int; (* id of the next instance to finalize *)
  waiting : (int * int option * Bitvec.t) Queue.t; (* (k, source, input) *)
  inflight : (int, instance) Hashtbl.t; (* admitted, not finalized *)
  mutable shapes : shape list; (* one per (plan, source) seen *)
  mutable results : Nab.instance_report list; (* reversed *)
  mutable data_rounds : int;
  mutable last_admit_round : int;
  mutable flag_batches : int;
  mutable rollbacks : int;
}

(* The scheduler's round budget, in simulated time units: one instance's
   bottleneck round duration under the initial plan — the largest Phase-1
   slice or equality-check payload any single link carries, normalised by
   its capacity. Rounds then mimic the serial cadence per link while the
   deficit rotation interleaves instances across them: small enough that
   deep links drain early instances while shallow links fill later ones
   (the pipeline), large enough that no packet needs the force-send path. *)
let auto_quantum ses g =
  let cfg = Nab.session_config ses in
  let plan = Nab.session_plan_for ses ~source:cfg.Nab.source in
  let value_bits = Nab.session_value_bits ses plan in
  let gamma = plan.Nab.plan_gamma in
  let sizes = Phase1.slice_sizes ~value_bits ~trees:gamma in
  let max_slice = Array.fold_left max 1 sizes in
  let coding = plan.Nab.plan_coding in
  let m_deg = Nab_field.Gf2p.degree (Coding.field coding) in
  let rho = plan.Nab.plan_rho in
  let stripes = value_bits / (rho * m_deg) in
  List.fold_left
    (fun acc (src, dst, cap) ->
      let cap = float_of_int (max 1 cap) in
      let z_e = Nab_matrix.Matrix.rows (Coding.matrix coding ~edge:(src, dst)) in
      let ec_bits = stripes * z_e * m_deg in
      Float.max acc
        (Float.max
           (float_of_int max_slice /. cap)
           (float_of_int ec_bits /. cap)))
    1.0 (Digraph.edges g)

let create ?obs ?transport ?(window = 32) ?flag_batch ~g ~config ~adversary () =
  if window < 1 then invalid_arg "Nab_stream.create: window must be >= 1";
  (* Half the window: the flag stage fires while the other half is still
     streaming/admitting, so batching never bubbles the data pipeline. *)
  let flag_batch =
    match flag_batch with Some b -> b | None -> max 1 (window / 2)
  in
  if flag_batch < 1 then invalid_arg "Nab_stream.create: flag_batch must be >= 1";
  let ses = Nab.create_session ?obs ?transport ~g ~config ~adversary () in
  let quantum = auto_quantum ses g in
  let obs = Nab.session_obs ses in
  let net = Nab.session_transport ses ~obs ~keep_events:false g in
  {
    ses;
    net;
    sched = Link_sched.create ~quantum g;
    window;
    flag_batch;
    epoch = 0;
    next_submit = Nab.session_next_k ses;
    next_fin = Nab.session_next_k ses;
    waiting = Queue.create ();
    inflight = Hashtbl.create 64;
    shapes = [];
    results = [];
    data_rounds = 0;
    last_admit_round = -1;
    flag_batches = 0;
    rollbacks = 0;
  }

let wall t = (Transport.timing t.net).Transport.wall

(* ---------------- transcript computation ---------------- *)

let shape_of t (ins : Nab.instance) =
  let plan = ins.Nab.ins_plan and source = ins.Nab.ins_source in
  match List.find_opt (fun sh -> sh.s_plan == plan && sh.s_source = source) t.shapes with
  | Some sh -> sh
  | None ->
      let sh = make_shape ins in
      t.shapes <- sh :: t.shapes;
      sh

let compute_transcript t ~k ~source input =
  let ses = t.ses in
  Nab.session_instance ses ~k ~source input
  |> Option.map @@ fun ins ->
  let faulty = Nab.session_faulty ses in
  let sh = shape_of t ins in
  let sched = sh.s_sched and verts = sh.s_verts in
  let n = n_of sh in
  let value = ins.Nab.ins_value in
  let sizes = sched.Phase1.sizes in
  let gamma = Array.length sizes in
  let recv = Array.make (gamma * n) None in
  let src_pos = pos sh source in
  List.iteri
    (fun tr slice -> recv.((tr * n) + src_pos) <- Some (Phase1.slice_payload slice))
    (Bitvec.split_balanced value ~parts:gamma);
  let p1_sends = ref [] in
  (* Phase 1 in the serial driver's rounds and vertex order, so stateful
     hooks draw from the per-instance RNG identically. *)
  for round = 1 to sched.Phase1.max_depth do
    Array.iteri
      (fun i v ->
        Phase1.step sched ~faulty ~adversary:ins.Nab.ins_phase1 ~round ~me:v
          ~received:(fun tr -> recv.((tr * n) + i))
          ~emit:(fun tr dst p ->
            recv.((tr * n) + pos sh dst) <- Some p;
            p1_sends := (tr, v, dst, p) :: !p1_sends))
      verts
  done;
  let assembled =
    Array.mapi
      (fun i v ->
        if v = source then value
        else
          Phase1.assemble ~slice_sizes:sizes
            (Array.init gamma (fun tr -> recv.((tr * n) + i))))
      verts
  in
  let ec_sends = Array.make (n * n) None in
  let flags =
    if ins.Nab.ins_reduced then [||]
    else begin
      let m = (Nab.session_config ses).Nab.m in
      let coding = ins.Nab.ins_plan.Nab.plan_coding in
      let xs = Array.make n None in
      let x_of i =
        match xs.(i) with
        | Some x -> x
        | None ->
            let x = Bitvec.to_symbols assembled.(i) ~sym_bits:m in
            xs.(i) <- Some x;
            x
      in
      (* The equality check, again in serial outbox order. *)
      Array.iteri
        (fun i v ->
          List.iter
            (fun j ->
              ec_sends.((i * n) + j) <-
                Some
                  (Equality_check.send coding ~faulty ~adversary:ins.Nab.ins_ec ~me:v
                     ~dst:verts.(j) (x_of i)))
            sh.s_out.(i))
        verts;
      Array.mapi
        (fun i v ->
          Equality_check.expected_flag coding ~graph:ins.Nab.ins_gk ~me:v ~x:(x_of i)
            ~received:(fun ~src ->
              let j = pos sh src in
              if j < 0 then None else ec_sends.((j * n) + i)))
        verts
    end
  in
  {
    t_ins = ins;
    t_shape = sh;
    t_recv = recv;
    t_p1_sends = !p1_sends;
    t_ec_sends = ec_sends;
    t_assembled = assembled;
    t_flags = flags;
  }

(* The claim transcripts dispute control broadcasts: each send is claimed
   as sent by its source and received by its destination, Phase-1 sends in
   send order, then the equality check in outbox order. *)
let claims_of tc =
  let sh = tc.t_shape in
  let n = n_of sh in
  let rev = Array.make n [] in
  let pair ~proto ~src ~dst body =
    let claim dir =
      { Wire.c_phase = proto; c_round = 0; c_src = src; c_dst = dst; c_dir = dir; c_body = body }
    in
    let i = pos sh src and j = pos sh dst in
    rev.(i) <- claim Wire.Sent :: rev.(i);
    rev.(j) <- claim Wire.Received :: rev.(j)
  in
  List.iter
    (fun (tr, src, dst, p) -> pair ~proto:(Phase1.tree_proto tr) ~src ~dst p)
    (List.rev tc.t_p1_sends);
  Array.iteri
    (fun i v ->
      List.iter
        (fun j ->
          match tc.t_ec_sends.((i * n) + j) with
          | Some p -> pair ~proto:Equality_check.proto ~src:v ~dst:sh.s_verts.(j) p
          | None -> ())
        sh.s_out.(i))
    sh.s_verts;
  fun v ->
    let i = pos sh v in
    if i < 0 then [] else List.rev rev.(i)

(* ---------------- data plane ---------------- *)

let enqueue_ec t inst (tc : transcript) i =
  let sh = tc.t_shape in
  let n = n_of sh and v = sh.s_verts.(i) in
  List.iter
    (fun j ->
      match tc.t_ec_sends.((i * n) + j) with
      | None -> () (* reduced to Phase 1: no equality check *)
      | Some payload ->
          let dst = sh.s_verts.(j) in
          Link_sched.enqueue t.sched ~flow:inst.i_k ~src:v ~dst
            (Packet.direct ~proto:inst.i_ec_proto ~origin:v ~dst payload);
          inst.i_ec_outstanding <- inst.i_ec_outstanding + 1)
    sh.s_out.(i)

let node_settled t inst tc i =
  inst.i_node_wait.(i) <- inst.i_node_wait.(i) - 1;
  if inst.i_node_wait.(i) = 0 then enqueue_ec t inst tc i

(* Edge (tree, parent -> v) settled, v at position [i]: v's reception on
   that tree is final. Cascade v's own sends — physical packets when the
   transcript says the parent-side node actually sent, instant settlement
   otherwise (a suppressed send delivers nothing, so nothing need move). *)
let rec settle_edge t inst tc ~tree i =
  inst.i_unsettled <- inst.i_unsettled - 1;
  node_settled t inst tc i;
  cascade_sends t inst tc ~tree i

and cascade_sends t inst tc ~tree i =
  let sh = tc.t_shape in
  let n = n_of sh and v = sh.s_verts.(i) in
  List.iter
    (fun j ->
      match tc.t_recv.((tree * n) + j) with
      | Some p ->
          let w = sh.s_verts.(j) in
          Link_sched.enqueue t.sched ~flow:inst.i_k ~src:v ~dst:w
            (Packet.direct ~proto:inst.i_p1_protos.(tree) ~origin:v ~dst:w p)
      | None -> settle_edge t inst tc ~tree j)
    sh.s_children.((tree * n) + i)

let check_done inst tc =
  if inst.i_unsettled = 0 && inst.i_ec_outstanding = 0 then
    inst.i_status <- Data_done tc

let launch t inst tc =
  let sh = tc.t_shape in
  let k = inst.i_k and epoch = t.epoch in
  let gamma = Array.length sh.s_sched.Phase1.trees and n = n_of sh in
  inst.i_epoch <- epoch;
  inst.i_admit_wall <- wall t;
  inst.i_status <- Streaming tc;
  inst.i_p1_protos <- Array.init gamma (fun tree -> p1_proto ~k ~epoch ~tree);
  inst.i_ec_proto <- ec_proto ~k ~epoch;
  inst.i_ec_outstanding <- 0;
  (* Every non-root vertex owes one parent-edge settlement per tree. *)
  inst.i_unsettled <- gamma * (n - 1);
  inst.i_node_wait <- Array.map (fun v -> if v = inst.i_source then 0 else gamma) sh.s_verts;
  let src_pos = pos sh inst.i_source in
  enqueue_ec t inst tc src_pos;
  for tree = 0 to gamma - 1 do
    cascade_sends t inst tc ~tree src_pos
  done;
  check_done inst tc

(* Apply [f] to instance [k] if it is still streaming in [epoch]; packets
   of a stale epoch or a finished instance are ignored. *)
let on_streaming t ~k ~epoch f =
  match Hashtbl.find_opt t.inflight k with
  | Some ({ i_status = Streaming tc; _ } as inst) when inst.i_epoch = epoch ->
      f inst tc;
      check_done inst tc
  | _ -> ()

let absorb t inbox =
  List.iter
    (fun v ->
      List.iter
        (fun (_, (pkt : Packet.t)) ->
          match parse_proto pkt.Packet.proto with
          | Slice { k; epoch; tree } ->
              on_streaming t ~k ~epoch (fun inst tc ->
                  settle_edge t inst tc ~tree (pos tc.t_shape v))
          | Symbols { k; epoch } ->
              on_streaming t ~k ~epoch (fun inst _ ->
                  inst.i_ec_outstanding <- inst.i_ec_outstanding - 1)
          | Foreign -> ())
        (inbox v))
    (Digraph.vertices (Nab.session_physical_graph t.ses))

let quiesce t =
  (* Land every in-flight data packet before control rounds run on the
     shared fabric (a no-op on the synchronous backend). *)
  if Transport.pending_count t.net > 0 then
    absorb t (Transport.drain t.net ~phase:"stream-data")

(* ---------------- finalization, flags, dispute control ---------------- *)

let finalize t inst (report : Nab.instance_report) =
  Nab.session_push_report t.ses report;
  t.results <- report :: t.results;
  Hashtbl.remove t.inflight inst.i_k;
  t.next_fin <- inst.i_k + 1

(* An instance's latency on the shared fabric stands in for its wall time. *)
let report_of t inst tc ?dc decisions =
  Nab.instance_report t.ses ~k:inst.i_k ~ins:tc.t_ins ?dc ~decisions
    ~latency:(wall t -. inst.i_admit_wall) ()

let assembled_decisions tc =
  List.mapi (fun i v -> (v, tc.t_assembled.(i))) (Digraph.vertices tc.t_ins.Nab.ins_gk)

(* Roll back every admitted-but-unfinalized instance: their transcripts
   were computed on a G_k that dispute control just evolved away from.
   Queued traffic is flushed, in-flight packets are orphaned by the epoch
   bump, and each instance relaunches on the new graph — exactly what the
   serial driver would have computed for it in the first place. *)
let rollback t ~above =
  t.epoch <- t.epoch + 1;
  let victims =
    Hashtbl.fold (fun k inst acc -> if k > above then inst :: acc else acc) t.inflight []
    |> List.sort (fun a b -> compare a.i_k b.i_k)
  in
  List.iter
    (fun inst ->
      t.rollbacks <- t.rollbacks + 1;
      Link_sched.flush_flow t.sched inst.i_k;
      match compute_transcript t ~k:inst.i_k ~source:inst.i_source inst.i_input with
      | Some tc -> launch t inst tc
      | None -> inst.i_status <- Absent)
    victims

let ready_batch t =
  (* The longest run of consecutive data-done instances starting at the
     finalization frontier, capped by the flag batch size. Absent and
     reduced instances finalize alone (they broadcast no flags). *)
  let rec collect k n acc =
    if n >= t.flag_batch then List.rev acc
    else
      match Hashtbl.find_opt t.inflight k with
      | Some ({ i_status = Data_done tc; _ } as inst) when not tc.t_ins.Nab.ins_reduced ->
          collect (k + 1) (n + 1) ((inst, tc) :: acc)
      | _ -> List.rev acc
  in
  match Hashtbl.find_opt t.inflight t.next_fin with
  | Some ({ i_status = Absent; _ } as inst) -> `Absent inst
  | Some ({ i_status = Data_done tc; _ } as inst) when tc.t_ins.Nab.ins_reduced ->
      `Reduced (inst, tc)
  | Some { i_status = Data_done _; _ } -> `Flags (collect t.next_fin 0 [])
  | _ -> `Wait

let dispute_control t inst tc flags =
  let ses = t.ses in
  let verdicts, new_disputes =
    Nab.dispute_control ses tc.t_ins ~net:t.net ~flags ~claims_of:(claims_of tc) ()
  in
  let report =
    report_of t inst tc ~dc:new_disputes
      (List.map (fun (v, verdict) -> (v, verdict.Dispute.output)) verdicts)
  in
  quiesce t;
  Nab.session_dc_apply ses;
  finalize t inst report;
  (* Graph/plan state changed: everything planned on the old G_k must be
     recomputed. Without new disputes G_k is unchanged and the stream
     continues undisturbed — the dispute was charged once, not per
     in-flight instance. *)
  if new_disputes <> [] then begin
    rollback t ~above:inst.i_k;
    true
  end
  else false

let run_flag_stage t batch =
  let ses = t.ses in
  quiesce t;
  t.flag_batches <- t.flag_batches + 1;
  Nab_obs.add (Nab.session_obs ses) "stream.flag_batches" 1;
  let _, tc0 = List.hd batch in
  let participants = Digraph.vertices tc0.t_ins.Nab.ins_gk in
  let b = List.length batch in
  let flag_of tc v =
    let i = pos tc.t_shape v in
    i >= 0 && i < Array.length tc.t_flags && tc.t_flags.(i)
  in
  let inputs =
    List.map
      (fun v ->
        let fs = List.map (fun (_, tc) -> Wire.Flag (flag_of tc v)) batch in
        (v, if b = 1 then List.hd fs else Wire.Batch fs))
      participants
  in
  let default =
    if b = 1 then Wire.Flag false
    else Wire.Batch (List.map (fun _ -> Wire.Flag false) batch)
  in
  (* The batch runs under its first instance's hooks. *)
  let agreed =
    Nab.agree_flags ses tc0.t_ins ~net:t.net ~phase:"stream-flags" ~inputs ~default
  in
  let agreed_flag i src =
    match agreed src with
    | Some (Wire.Flag flag) when b = 1 -> flag
    | Some (Wire.Batch l) when b > 1 -> (
        match List.nth_opt l i with Some (Wire.Flag flag) -> flag | _ -> false)
    | Some _ | None -> false
  in
  (* Process the batch in instance order; the first instance that runs
     dispute control with effect tears the rest of the batch down. *)
  let rec go i = function
    | [] -> ()
    | (inst, tc) :: rest ->
        if Hashtbl.mem t.inflight inst.i_k && inst.i_k = t.next_fin then begin
          let flags = List.map (fun v -> (v, agreed_flag i v)) participants in
          if not (List.exists snd flags) then begin
            finalize t inst (report_of t inst tc (assembled_decisions tc));
            go (i + 1) rest
          end
          else begin
            let rolled = dispute_control t inst tc flags in
            (* Stop on rollback — the rest of the batch was relaunched on
               the new G_k and these transcripts are stale. An unchanged
               graph lets the batch run on. *)
            if not rolled then go (i + 1) rest
          end
        end
  in
  go 0 batch

let rec process_ready t =
  match ready_batch t with
  | `Wait -> ()
  | `Absent inst ->
      finalize t inst (Nab.instance_report t.ses ~k:inst.i_k ());
      process_ready t
  | `Reduced (inst, tc) ->
      finalize t inst (report_of t inst tc (assembled_decisions tc));
      process_ready t
  | `Flags batch ->
      (* Accumulate: with staggered admission roughly one instance
         completes per round, so firing eagerly would run one EIG per
         instance — the per-value flag overhead the batch exists to
         amortize. Hold the ready run until it reaches the batch size, or
         until nothing else can make progress (no instance streaming and
         either the queue is empty or the window is exhausted). *)
      let n = List.length batch in
      let nothing_streaming =
        Hashtbl.fold
          (fun _ i acc ->
            acc && match i.i_status with Streaming _ -> false | _ -> true)
          t.inflight true
      in
      let must_fire =
        n >= t.flag_batch
        || nothing_streaming
           && (Queue.is_empty t.waiting || Hashtbl.length t.inflight >= t.window)
      in
      if must_fire then begin
        run_flag_stage t batch;
        process_ready t
      end

(* ---------------- admission and the pump ---------------- *)

(* Admission is paced to one instance per scheduler round (besides refills
   of an idle fabric): launching a whole queue at once puts every instance
   at the same tree depth, so shallow links convoy while deep links starve
   — the Figure-3 stagger, enforced at admission instead of by a global
   super-round. The window is the backstop that bounds live state. *)
let admit t =
  let blocked = ref false in
  while
    (not !blocked)
    && Hashtbl.length t.inflight < t.window
    && not (Queue.is_empty t.waiting)
  do
    if
      Hashtbl.length t.inflight > 0
      && t.data_rounds <= t.last_admit_round
      && Link_sched.queued t.sched > 0
    then blocked := true
    else begin
      t.last_admit_round <- t.data_rounds;
      let k, source, input = Queue.pop t.waiting in
    let source =
      match source with
      | Some s -> s
      | None -> (Nab.session_config t.ses).Nab.source
    in
    let inst =
      {
        i_k = k;
        i_source = source;
        i_input = input;
        i_status = Absent;
        i_epoch = t.epoch;
        i_unsettled = 0;
        i_node_wait = [||];
        i_ec_outstanding = 0;
        i_admit_wall = wall t;
        i_p1_protos = [||];
        i_ec_proto = "";
      }
    in
      Hashtbl.add t.inflight k inst;
      (match compute_transcript t ~k ~source input with
      | Some tc -> launch t inst tc
      | None -> inst.i_status <- Absent);
      process_ready t
    end
  done

let submit t ?source input =
  (match source with
  | Some s ->
      if not (Digraph.mem_vertex (Nab.session_physical_graph t.ses) s) then
        invalid_arg "Nab_stream.submit: source not a vertex of the network"
  | None -> ());
  (* Reject oversized inputs at submission time, not at admission. *)
  let l_bits = (Nab.session_config t.ses).Nab.l_bits in
  if Bitvec.length input > l_bits then invalid_arg "Nab_stream: input longer than L";
  let k = t.next_submit in
  t.next_submit <- k + 1;
  Queue.push (k, source, input) t.waiting;
  Nab_obs.add (Nab.session_obs t.ses) "stream.submitted" 1;
  admit t;
  k

let pending t = Hashtbl.length t.inflight + Queue.length t.waiting

let idle_limit = 100_000

let drain t =
  let idle = ref 0 in
  while Hashtbl.length t.inflight > 0 || not (Queue.is_empty t.waiting) do
    admit t;
    process_ready t;
    if Hashtbl.length t.inflight > 0 then begin
      if Link_sched.queued t.sched > 0 then begin
        let out = Link_sched.select t.sched in
        t.data_rounds <- t.data_rounds + 1;
        idle := 0;
        let outbox v = match List.assoc_opt v out with Some l -> l | None -> [] in
        absorb t (Transport.round t.net ~phase:"stream-data" outbox)
      end
      else if Transport.pending_count t.net > 0 then begin
        incr idle;
        if !idle > idle_limit then raise (Stalled (pending t));
        absorb t (Transport.drain t.net ~phase:"stream-data")
      end
      else begin
        (* Nothing queued, nothing in flight, yet instances unfinished:
           only possible if the transport dropped packets. *)
        incr idle;
        if !idle > 2 then raise (Stalled (pending t));
        process_ready t
      end
    end
  done

(* ---------------- reports ---------------- *)

type report = {
  run : Nab.run_report;
  wall : float;
  goodput : float;
  delivered : int;
  data_rounds : int;
  flag_batches : int;
  rollbacks : int;
  window : int;
  flag_batch : int;
}

let report t =
  let run = Nab.session_report t.ses in
  let delivered = List.length run.Nab.instances in
  let w = wall t in
  let l_bits = (Nab.session_config t.ses).Nab.l_bits in
  let goodput =
    if w > 0.0 then float_of_int (l_bits * delivered) /. w else infinity
  in
  let obs = Nab.session_obs t.ses in
  if Nab_obs.enabled obs then Nab_obs.gauge obs "stream.goodput" goodput;
  {
    run;
    wall = w;
    goodput;
    delivered;
    data_rounds = t.data_rounds;
    flag_batches = t.flag_batches;
    rollbacks = t.rollbacks;
    window = t.window;
    flag_batch = t.flag_batch;
  }

let close t = Transport.close t.net

let run ?obs ?transport ?window ?flag_batch ~g ~config ~adversary ~inputs
    ~q () =
  let t = create ?obs ?transport ?window ?flag_batch ~g ~config ~adversary () in
  Fun.protect ~finally:(fun () -> close t) @@ fun () ->
  for k = 1 to q do
    ignore (submit t (inputs k))
  done;
  drain t;
  report t
