(* The pre-compilation simulator, kept verbatim (per-round hashtables,
   per-receiver sort, unconditional event retention). The compiled core in
   lib/net/sim.ml must be observably byte-identical to it: inbox contents
   and ordering (including same-sender ties and delayed arrivals), drop
   counts, timings, per-link totals, utilisation, events. The differential
   tests in test/test_net.ml and `bench/sim.exe --check` run both side by
   side, and bench/sim.exe times it to measure what the compiled core
   bought. *)

[@@@warning "-32"]

open Nab_graph

type 'm event = { round_no : int; ev_phase : string; src : int; dst : int; msg : 'm }

type phase_acc = {
  mutable p_rounds : int;
  mutable p_wall : float;
  mutable p_bottleneck : float;
  mutable p_bits : int;
  mutable p_extra : float;
}

type phase_stat = {
  phase : string;
  rounds : int;
  wall : float;
  bottleneck : float;
  bits_total : int;
  extra : float;
}

type 'm t = {
  g : Digraph.t;
  bits : 'm -> int;
  delays : int * int -> int;
  obs : Nab_obs.ctx;
  mutable round_no : int;
  mutable msg_no : int;
  mutable evs : 'm event list; (* reversed *)
  mutable dropped : int;
  link_total : (int * int, int) Hashtbl.t;
  phases : (string, phase_acc) Hashtbl.t;
  mutable phase_order : string list; (* reversed *)
  pending : (int, (int * int * 'm) list) Hashtbl.t;
}

let create ?(delays = fun _ -> 0) ?(obs = Nab_obs.null) g ~bits =
  {
    g;
    bits;
    delays;
    obs;
    round_no = 0;
    msg_no = 0;
    evs = [];
    dropped = 0;
    link_total = Hashtbl.create 32;
    phases = Hashtbl.create 8;
    phase_order = [];
    pending = Hashtbl.create 8;
  }

let phase_acc t name =
  match Hashtbl.find_opt t.phases name with
  | Some acc -> acc
  | None ->
      let acc =
        { p_rounds = 0; p_wall = 0.0; p_bottleneck = 0.0; p_bits = 0; p_extra = 0.0 }
      in
      Hashtbl.add t.phases name acc;
      t.phase_order <- name :: t.phase_order;
      acc

let elapsed_phases t =
  Hashtbl.fold (fun _ a acc -> acc +. a.p_wall +. a.p_extra) t.phases 0.0

let round t ~phase outbox =
  let acc = phase_acc t phase in
  t.round_no <- t.round_no + 1;
  let round_no = t.round_no in
  let sample = Nab_obs.sample_messages t.obs in
  let link_bits = Hashtbl.create 16 in
  let inboxes : (int, (int * 'm) list) Hashtbl.t = Hashtbl.create 16 in
  let into_inbox src dst msg =
    Hashtbl.replace inboxes dst
      ((src, msg) :: (try Hashtbl.find inboxes dst with Not_found -> []));
    t.evs <- { round_no; ev_phase = phase; src; dst; msg } :: t.evs;
    t.msg_no <- t.msg_no + 1;
    if sample > 0 && t.msg_no mod sample = 0 then
      Nab_obs.point t.obs ~scope:"sim" ~t:(elapsed_phases t)
        ~attrs:
          [
            ("phase", Nab_obs.S phase);
            ("round", Nab_obs.I round_no);
            ("src", Nab_obs.I src);
            ("dst", Nab_obs.I dst);
            ("bits", Nab_obs.I (t.bits msg));
          ]
        "msg"
  in
  let deliver src dst msg =
    if Digraph.mem_edge t.g src dst then begin
      let b = t.bits msg in
      if b <= 0 then invalid_arg "Sim.round: message with non-positive bit size";
      Hashtbl.replace link_bits (src, dst)
        (b + try Hashtbl.find link_bits (src, dst) with Not_found -> 0);
      Hashtbl.replace t.link_total (src, dst)
        (b + try Hashtbl.find t.link_total (src, dst) with Not_found -> 0);
      let d = max 0 (t.delays (src, dst)) in
      if d = 0 then into_inbox src dst msg
      else begin
        let due = round_no + d in
        Hashtbl.replace t.pending due
          ((src, dst, msg) :: (try Hashtbl.find t.pending due with Not_found -> []))
      end
    end
    else begin
      t.dropped <- t.dropped + 1;
      Nab_obs.add t.obs "sim.dropped" 1
    end
  in
  (match Hashtbl.find_opt t.pending round_no with
  | Some arrivals ->
      List.iter (fun (src, dst, msg) -> into_inbox src dst msg) (List.rev arrivals);
      Hashtbl.remove t.pending round_no
  | None -> ());
  List.iter
    (fun v -> List.iter (fun (dst, msg) -> deliver v dst msg) (outbox v))
    (Digraph.vertices t.g);
  let duration =
    Hashtbl.fold
      (fun (src, dst) b acc ->
        Float.max acc (float_of_int b /. float_of_int (Digraph.cap t.g src dst)))
      link_bits 0.0
  in
  let bits_this_round = Hashtbl.fold (fun _ b acc -> acc + b) link_bits 0 in
  acc.p_rounds <- acc.p_rounds + 1;
  acc.p_wall <- acc.p_wall +. duration;
  acc.p_bottleneck <- Float.max acc.p_bottleneck duration;
  acc.p_bits <- acc.p_bits + bits_this_round;
  if Nab_obs.enabled t.obs then begin
    Nab_obs.point t.obs ~scope:"sim" ~t:(elapsed_phases t)
      ~attrs:
        [
          ("phase", Nab_obs.S phase);
          ("round", Nab_obs.I round_no);
          ("bits", Nab_obs.I bits_this_round);
          ("duration", Nab_obs.F duration);
        ]
      "round";
    Nab_obs.add t.obs "sim.rounds" 1;
    Nab_obs.add t.obs "sim.bits" bits_this_round
  end;
  fun v ->
    (try Hashtbl.find inboxes v with Not_found -> [])
    |> List.sort (fun (a, _) (b, _) -> compare a b)

let pending_count t = Hashtbl.fold (fun _ l acc -> acc + List.length l) t.pending 0

let drain t ~phase =
  let merged : (int, (int * 'm) list) Hashtbl.t = Hashtbl.create 16 in
  while pending_count t > 0 do
    let inbox = round t ~phase (fun _ -> []) in
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

let add_cost t ~phase c =
  let acc = phase_acc t phase in
  acc.p_extra <- acc.p_extra +. c

let phase_stats t =
  List.rev_map
    (fun name ->
      let a = Hashtbl.find t.phases name in
      {
        phase = name;
        rounds = a.p_rounds;
        wall = a.p_wall;
        bottleneck = a.p_bottleneck;
        bits_total = a.p_bits;
        extra = a.p_extra;
      })
    t.phase_order

let elapsed t =
  List.fold_left (fun acc s -> acc +. s.wall +. s.extra) 0.0 (phase_stats t)

let pipelined_elapsed t =
  List.fold_left (fun acc s -> acc +. s.bottleneck +. s.extra) 0.0 (phase_stats t)

type timing = { wall : float; pipelined : float; phases : phase_stat list }

let timing t =
  { wall = elapsed t; pipelined = pipelined_elapsed t; phases = phase_stats t }

let link_bits t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.link_total [] |> List.sort compare

let dropped t = t.dropped

let utilization t =
  let wall = elapsed t in
  Hashtbl.fold
    (fun (src, dst) bits acc ->
      let u =
        if wall <= 0.0 then 0.0
        else
          float_of_int bits /. (float_of_int (Digraph.cap t.g src dst) *. wall)
      in
      ((src, dst), u) :: acc)
    t.link_total []
  |> List.sort compare

let events t = List.rev t.evs
let events_of_phase t phase = List.filter (fun e -> e.ev_phase = phase) (events t)
let rounds_run t = t.round_no
