open Nab_graph

type 'm event = { round_no : int; ev_phase : string; src : int; dst : int; msg : 'm }

type phase_acc = {
  mutable p_rounds : int;
  mutable p_wall : float;
  mutable p_bottleneck : float;
  mutable p_bits : int;
  mutable p_extra : float;
}

let new_acc () =
  { p_rounds = 0; p_wall = 0.0; p_bottleneck = 0.0; p_bits = 0; p_extra = 0.0 }

(* ---------------------------- compiled index ----------------------------

   [create] compiles the digraph once into dense vertex/edge-indexed
   arrays, so the engines run on integer indices — no per-message map
   lookups, no per-round hashtables. *)

type 'm t = {
  g : Digraph.t;
  who : string; (* "Sim.round" etc.: names the engine in bit-size errors *)
  bits : 'm -> int;
  obs : Nab_obs.ctx;
  keep_events : bool;
  nv : int;
  vid : int array; (* dense index -> vertex id, ascending *)
  (* vertex id -> dense index. Contiguous-ish id ranges (the common case)
     use a direct offset table; pathological ranges fall back to hashing. *)
  idx_base : int;
  idx_direct : int array; (* (id - idx_base) -> index, -1 absent; [||] = hashed *)
  idx_tbl : (int, int) Hashtbl.t;
  (* Edges in (src, dst) lexicographic order — the order every sorted
     accessor (link_bits, utilization) reports in. *)
  ne : int;
  e_src_id : int array;
  e_dst_id : int array;
  e_dst : int array; (* dense destination index per edge *)
  e_capf : float array;
  (* (src index * nv + dst index) -> edge id. Dense matrix for small
     graphs, hashtable above [dense_edge_limit] vertices. *)
  eid_dense : int array;
  eid_tbl : (int, int) Hashtbl.t;
  (* --- accounting --- *)
  mutable round_no : int;
  mutable msg_no : int; (* delivered-message counter, for trace sampling *)
  mutable evs : 'm event list; (* reversed; only grown when keep_events *)
  mutable dropped : int;
  link_total : int array; (* per edge, whole run *)
  phases : (string, phase_acc) Hashtbl.t;
  mutable phase_order : string list; (* reversed *)
  mutable cur_phase : string; (* the round in progress *)
  mutable cur : phase_acc;
  (* per-round tally, reset via the touched list *)
  round_bits : int array; (* per edge *)
  touched : int array; (* edge ids with round_bits > 0 this round *)
  mutable n_touched : int;
}

let dense_vertex_span = 65536
let dense_edge_limit = 512 (* nv <= this: the nv^2 edge matrix stays small *)

let create ?(obs = Nab_obs.null) ?(keep_events = false) ~who g ~bits =
  let vid = Array.of_list (Digraph.vertices g) in
  let nv = Array.length vid in
  let idx_tbl = Hashtbl.create (max 16 nv) in
  let idx_base, idx_direct =
    if nv = 0 then (0, [||])
    else begin
      let lo = vid.(0) and hi = vid.(nv - 1) in
      let span = hi - lo + 1 in
      if span > 0 && (span <= dense_vertex_span || span <= 64 * nv) then begin
        let a = Array.make span (-1) in
        Array.iteri (fun i v -> a.(v - lo) <- i) vid;
        (lo, a)
      end
      else begin
        Array.iteri (fun i v -> Hashtbl.replace idx_tbl v i) vid;
        (0, [||])
      end
    end
  in
  let edges = Array.of_list (Digraph.edges g) in
  let ne = Array.length edges in
  let e_src_id = Array.make ne 0 in
  let e_dst_id = Array.make ne 0 in
  let e_dst = Array.make ne 0 in
  let e_capf = Array.make ne 0.0 in
  let use_dense = nv > 0 && nv <= dense_edge_limit in
  let eid_dense = if use_dense then Array.make (nv * nv) (-1) else [||] in
  let eid_tbl = Hashtbl.create (if use_dense then 1 else max 16 ne) in
  let lookup v =
    if Array.length idx_direct > 0 then idx_direct.(v - idx_base)
    else Hashtbl.find idx_tbl v
  in
  Array.iteri
    (fun e (src, dst, cap) ->
      let si = lookup src and di = lookup dst in
      e_src_id.(e) <- src;
      e_dst_id.(e) <- dst;
      e_dst.(e) <- di;
      e_capf.(e) <- float_of_int cap;
      let key = (si * nv) + di in
      if use_dense then eid_dense.(key) <- e else Hashtbl.replace eid_tbl key e)
    edges;
  {
    g;
    who;
    bits;
    obs;
    keep_events;
    nv;
    vid;
    idx_base;
    idx_direct;
    idx_tbl;
    ne;
    e_src_id;
    e_dst_id;
    e_dst;
    e_capf;
    eid_dense;
    eid_tbl;
    round_no = 0;
    msg_no = 0;
    evs = [];
    dropped = 0;
    link_total = Array.make ne 0;
    phases = Hashtbl.create 8;
    phase_order = [];
    cur_phase = "";
    cur = new_acc ();
    round_bits = Array.make ne 0;
    touched = Array.make ne 0;
    n_touched = 0;
  }

let nv t = t.nv
let vertex t i = t.vid.(i)

let vertex_index t v =
  if Array.length t.idx_direct > 0 then begin
    let o = v - t.idx_base in
    if o < 0 || o >= Array.length t.idx_direct then -1 else t.idx_direct.(o)
  end
  else match Hashtbl.find_opt t.idx_tbl v with Some i -> i | None -> -1

(* The edge id of (src, dst), or -1 when the link (or either endpoint)
   does not exist. *)
let edge_id t src dst =
  let si = vertex_index t src in
  if si < 0 then -1
  else begin
    let di = vertex_index t dst in
    if di < 0 then -1
    else begin
      let key = (si * t.nv) + di in
      if Array.length t.eid_dense > 0 then t.eid_dense.(key)
      else match Hashtbl.find_opt t.eid_tbl key with Some e -> e | None -> -1
    end
  end

let edge_dst t e = t.e_dst.(e)

(* ------------------------------ rounds ------------------------------ *)

let phase_acc t name =
  match Hashtbl.find_opt t.phases name with
  | Some acc -> acc
  | None ->
      let acc = new_acc () in
      Hashtbl.add t.phases name acc;
      t.phase_order <- name :: t.phase_order;
      acc

(* The obs timestamp. A fold over the table, not over [phase_order]: the
   summation order is part of the byte-exact trace. *)
let elapsed_phases t =
  Hashtbl.fold (fun _ a acc -> acc +. a.p_wall +. a.p_extra) t.phases 0.0

let begin_round t ~phase =
  t.cur <- phase_acc t phase;
  t.cur_phase <- phase;
  t.round_no <- t.round_no + 1

let charge t e msg =
  let b = t.bits msg in
  if b <= 0 then invalid_arg (t.who ^ ": message with non-positive bit size");
  if t.round_bits.(e) = 0 then begin
    t.touched.(t.n_touched) <- e;
    t.n_touched <- t.n_touched + 1
  end;
  t.round_bits.(e) <- t.round_bits.(e) + b;
  t.link_total.(e) <- t.link_total.(e) + b

let drop t =
  t.dropped <- t.dropped + 1;
  Nab_obs.add t.obs "sim.dropped" 1

let deliver t src dst msg =
  if t.keep_events then
    t.evs <- { round_no = t.round_no; ev_phase = t.cur_phase; src; dst; msg } :: t.evs;
  t.msg_no <- t.msg_no + 1;
  let sample = Nab_obs.sample_messages t.obs in
  if sample > 0 && t.msg_no mod sample = 0 then
    Nab_obs.point t.obs ~scope:"sim" ~t:(elapsed_phases t)
      ~attrs:
        [
          ("phase", Nab_obs.S t.cur_phase);
          ("round", Nab_obs.I t.round_no);
          ("src", Nab_obs.I src);
          ("dst", Nab_obs.I dst);
          ("bits", Nab_obs.I (t.bits msg));
        ]
      "msg"

let tally t =
  (* Transmission time: all links in parallel, so the slowest one. *)
  let duration = ref 0.0 in
  let bits = ref 0 in
  for i = 0 to t.n_touched - 1 do
    let e = t.touched.(i) in
    let b = t.round_bits.(e) in
    bits := !bits + b;
    duration := Float.max !duration (float_of_int b /. t.e_capf.(e));
    t.round_bits.(e) <- 0
  done;
  t.n_touched <- 0;
  (!duration, !bits)

let end_round t ~duration ~bits =
  let acc = t.cur in
  acc.p_rounds <- acc.p_rounds + 1;
  acc.p_wall <- acc.p_wall +. duration;
  acc.p_bottleneck <- Float.max acc.p_bottleneck duration;
  acc.p_bits <- acc.p_bits + bits;
  if Nab_obs.enabled t.obs then begin
    Nab_obs.point t.obs ~scope:"sim" ~t:(elapsed_phases t)
      ~attrs:
        [
          ("phase", Nab_obs.S t.cur_phase);
          ("round", Nab_obs.I t.round_no);
          ("bits", Nab_obs.I bits);
          ("duration", Nab_obs.F duration);
        ]
      "round";
    Nab_obs.add t.obs "sim.rounds" 1;
    Nab_obs.add t.obs "sim.bits" bits
  end

let drain t ~pending round =
  (* Messages already in flight keep arriving even when no node has
     anything left to send: run empty rounds until the fabric is quiet. *)
  let merged : (int, (int * 'm) list) Hashtbl.t = Hashtbl.create 16 in
  while pending () > 0 do
    let inbox = round (fun _ -> []) in
    List.iter
      (fun v ->
        match inbox v with
        | [] -> ()
        | arrivals ->
            Hashtbl.replace merged v
              ((try Hashtbl.find merged v with Not_found -> []) @ arrivals))
      (Digraph.vertices t.g)
  done;
  fun v -> try Hashtbl.find merged v with Not_found -> []

(* ----------------------------- accessors ----------------------------- *)

let graph t = t.g
let obs t = t.obs
let keeps_events t = t.keep_events
let rounds_run t = t.round_no
let dropped t = t.dropped

let add_cost t ~phase c =
  let acc = phase_acc t phase in
  acc.p_extra <- acc.p_extra +. c

let phase_stats t =
  List.rev_map
    (fun name ->
      let a = Hashtbl.find t.phases name in
      {
        Transport.phase = name;
        rounds = a.p_rounds;
        wall = a.p_wall;
        bottleneck = a.p_bottleneck;
        bits_total = a.p_bits;
        extra = a.p_extra;
      })
    t.phase_order

let timing t =
  let phases = phase_stats t in
  let sum f =
    List.fold_left
      (fun acc (s : Transport.phase_stat) -> acc +. f s +. s.extra)
      0.0 phases
  in
  {
    Transport.wall = sum (fun s -> s.wall);
    pipelined = sum (fun s -> s.bottleneck);
    phases;
  }

(* Every link that carried bits, in (src, dst) order, with [f e bits]. *)
let per_link t f =
  let acc = ref [] in
  for e = t.ne - 1 downto 0 do
    let b = t.link_total.(e) in
    if b > 0 then acc := ((t.e_src_id.(e), t.e_dst_id.(e)), f e b) :: !acc
  done;
  !acc

let link_bits t = per_link t (fun _ b -> b)

let utilization t =
  (* Denominator: total elapsed time including analytic add_cost. A run
     whose time is entirely analytic (wall = 0) still lists every link that
     carried bits, at utilisation 0.0 — the empty list is reserved for "no
     traffic at all". *)
  let wall = (timing t).wall in
  per_link t (fun e b ->
      if wall <= 0.0 then 0.0 else float_of_int b /. (t.e_capf.(e) *. wall))

let events t = List.rev t.evs
let events_of_phase t phase = List.filter (fun e -> e.ev_phase = phase) (events t)

let transport_events t phase =
  List.map
    (fun (e : Packet.t event) ->
      {
        Transport.round_no = e.round_no;
        ev_phase = e.ev_phase;
        src = e.src;
        dst = e.dst;
        msg = e.msg;
      })
    (events_of_phase t phase)
