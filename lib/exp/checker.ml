open Nab_graph
open Nab_core

type ctx = {
  scenario : Scenario.t;
  g : Digraph.t;
  report : Nab.run_report;
  inputs : int -> Bitvec.t;
}

type outcome = {
  name : string;
  ok : bool;
  detail : string;
  data : (string * Nab_obs.Json.t) list;
}

type oracle = ctx -> bool * string

let eps = 1e-9

(* ---- invariant oracles ---- *)

let agreement ctx =
  let ok = Nab.fault_free_agree ctx.report in
  (ok, if ok then "all fault-free nodes agreed in every instance" else "fault-free decisions diverged")

let validity ctx =
  let ok = Nab.valid_outputs ctx.report ~inputs:ctx.inputs in
  (ok, if ok then "fault-free-source instances decided the input" else "a fault-free-source instance decided a wrong value")

let dc_budget ctx =
  let f = ctx.report.Nab.config.Nab.f in
  let budget = f * (f + 1) in
  let dc = ctx.report.Nab.dc_count in
  (dc <= budget, Printf.sprintf "dc_count=%d budget=%d" dc budget)

let honest_present ctx =
  let missing =
    List.filter
      (fun v ->
        (not (Vset.mem v ctx.report.Nab.faulty))
        && not (Digraph.mem_vertex ctx.report.Nab.final_graph v))
      (Digraph.vertices ctx.g)
  in
  ( missing = [],
    if missing = [] then "every fault-free node survived to the final graph"
    else
      Printf.sprintf "fault-free nodes excluded: [%s]"
        (String.concat "," (List.map string_of_int missing)) )

(* Theorem 1 gives a per-attempt failure probability bound p for random
   coding matrices. When p <= 1/2 we allow enough retries that the chance
   of a spurious violation is below 1e-12; the bound is computed with the
   original n (the per-instance graph can only be smaller, so the allowance
   is conservative). When p >= 1/2 the bound is vacuous for this (n, f,
   rho, m) and the oracle passes unconditionally. *)
let theorem1_attempts ctx =
  let n = Digraph.num_vertices ctx.g in
  let f = ctx.report.Nab.config.Nab.f in
  let m = ctx.report.Nab.config.Nab.m in
  let check (i : Nab.instance_report) =
    if i.Nab.coding_attempts <= 1 then None
    else
      let p = Coding.failure_bound ~n ~f ~rho:i.Nab.rho_k ~m in
      if p >= 0.5 then None
      else
        let allowed = 1 + int_of_float (Float.ceil (log 1e-12 /. log p)) in
        if i.Nab.coding_attempts <= allowed then None
        else
          Some
            (Printf.sprintf "instance %d: %d attempts > %d allowed (p=%.3g)" i.Nab.k
               i.Nab.coding_attempts allowed p)
  in
  match List.filter_map check ctx.report.Nab.instances with
  | [] ->
      let worst =
        List.fold_left (fun a (i : Nab.instance_report) -> max a i.Nab.coding_attempts) 0
          ctx.report.Nab.instances
      in
      (true, Printf.sprintf "max attempts=%d" worst)
  | d :: _ -> (false, d)

(* ---- theorem oracles ---- *)

let source ctx = ctx.report.Nab.config.Nab.source

(* The rich variants additionally return the numbers behind the verdict as
   structured data: analyze aggregates certified-capacity ratios and gap
   distributions across 10^5 rows and must not parse detail strings. *)
let theorem3_ratio_rich ctx =
  let s = Params.stars ctx.g ~source:(source ctx) ~f:ctx.report.Nab.config.Nab.f in
  let floor_ratio = if s.Params.half_capacity_condition then 0.5 else 1.0 /. 3.0 in
  let ok =
    s.Params.ratio >= floor_ratio -. eps
    && s.Params.throughput_lb <= s.Params.capacity_ub +. eps
  in
  ( ok,
    Printf.sprintf "gamma*=%d rho*=%d lb=%.4f ub=%.4f ratio=%.4f floor=%s"
      s.Params.gamma_star s.Params.rho_star s.Params.throughput_lb s.Params.capacity_ub
      s.Params.ratio
      (if s.Params.half_capacity_condition then "1/2" else "1/3"),
    Nab_obs.Json.
      [
        ("gamma_star", Int s.Params.gamma_star);
        ("rho_star", Int s.Params.rho_star);
        ("throughput_lb", Float s.Params.throughput_lb);
        ("capacity_ub", Float s.Params.capacity_ub);
        ("ratio", Float s.Params.ratio);
        ("half_capacity", Bool s.Params.half_capacity_condition);
      ] )

let theorem3_ratio ctx =
  let ok, detail, _ = theorem3_ratio_rich ctx in
  (ok, detail)

let capacity_witness ctx =
  match Capacity.verify ctx.g ~source:(source ctx) ~f:ctx.report.Nab.config.Nab.f with
  | Ok () -> (true, "Theorem-2 cut witnesses match gamma*/rho*")
  | Error e -> (false, e)

(* The capacity-oblivious baseline: plain EIG of the same L-bit value on the
   same network, fault-free. Its measured rate must respect the Theorem-2
   ceiling (it is a correct BB protocol), and when the scenario requests a
   gap, NAB's guaranteed rate must beat it by that factor. *)
let oblivious_gap_rich ctx =
  let g = ctx.g in
  let f = ctx.report.Nab.config.Nab.f in
  let l = ctx.scenario.Scenario.l_bits in
  let sym_bits = if l mod 8 = 0 then 8 else 1 in
  (* The oracle measures the sync timing model whatever backend the
     scenario ran on — it is a capacity ceiling, not a fault experiment. *)
  let net =
    Nab_net.Sim.transport (Nab_net.Sim.create g ~bits:Nab_net.Packet.bits)
  in
  let routing = Nab_classic.Routing.build g ~f in
  let data = Bitvec.to_symbols (Bitvec.pad_to (ctx.inputs 1) l) ~sym_bits in
  let _decisions =
    Nab_classic.Oblivious.broadcast ~net ~routing ~f ~source:(source ctx) ~value_bits:l
      ~data ~faulty:Vset.empty ()
  in
  let time = (Nab_net.Transport.timing net).Nab_net.Transport.pipelined in
  let obl = float_of_int l /. time in
  let s = Params.stars g ~source:(source ctx) ~f in
  let below_capacity = obl <= s.Params.capacity_ub +. eps in
  let gap_ok, gap_txt =
    match ctx.scenario.Scenario.min_gap with
    | None -> (true, "")
    | Some gmin ->
        ( s.Params.throughput_lb >= (gmin *. obl) -. eps,
          Printf.sprintf " min_gap=%.2f actual=%.2f" gmin (s.Params.throughput_lb /. obl)
        )
  in
  ( below_capacity && gap_ok,
    Printf.sprintf "oblivious=%.4f nab_lb=%.4f capacity_ub=%.4f%s" obl
      s.Params.throughput_lb s.Params.capacity_ub gap_txt,
    Nab_obs.Json.
      [
        ("oblivious", Float obl);
        ("nab_lb", Float s.Params.throughput_lb);
        ("capacity_ub", Float s.Params.capacity_ub);
        ("gap", Float (s.Params.throughput_lb /. obl));
      ] )

let oblivious_gap ctx =
  let ok, detail, _ = oblivious_gap_rich ctx in
  (ok, detail)

(* For stream scenarios (Scenario.stream = Some w): replay the q instances
   serially on a fresh session over the same transport and require byte-
   identical decisions, dispute state and graph evolution — the streaming
   layer is a scheduling transformation, never a semantic one. Trivially
   true on serial scenarios, so it can sit in any check list. *)
let stream_equiv ctx =
  match ctx.scenario.Scenario.stream with
  | None -> (true, "not a stream scenario")
  | Some _ ->
      let serial =
        Nab.run
          ~transport:(Scenario.transport_factory ctx.scenario)
          ~g:ctx.g
          ~config:(Scenario.config ctx.scenario)
          ~adversary:(Scenario.adversary_t ctx.scenario)
          ~inputs:(Scenario.inputs ctx.scenario)
          ~q:ctx.scenario.Scenario.q ()
      in
      let sig_of (r : Nab.run_report) =
        let b = Buffer.create 512 in
        List.iter
          (fun (i : Nab.instance_report) ->
            Buffer.add_string b
              (Printf.sprintf "k=%d g=%d r=%d mm=%b dc=%b red=%b|" i.Nab.k
                 i.Nab.gamma_k i.Nab.rho_k i.Nab.mismatch i.Nab.dc_run
                 i.Nab.reduced_to_phase1);
            List.iter
              (fun (v, bv) ->
                Buffer.add_string b (Printf.sprintf "%d:%s " v (Bitvec.to_hex bv)))
              i.Nab.decisions;
            List.iter
              (fun (x, y) -> Buffer.add_string b (Printf.sprintf "d%d,%d " x y))
              i.Nab.new_disputes)
          r.Nab.instances;
        Buffer.add_string b (Printf.sprintf "dc=%d" r.Nab.dc_count);
        Buffer.contents b
      in
      let ok =
        sig_of serial = sig_of ctx.report
        && Digraph.equal serial.Nab.final_graph ctx.report.Nab.final_graph
      in
      ( ok,
        if ok then "stream decisions identical to the serial replay"
        else "stream diverged from the serial driver" )

let builtin =
  [
    ("agreement", agreement);
    ("validity", validity);
    ("dc-budget", dc_budget);
    ("honest-present", honest_present);
    ("theorem1-attempts", theorem1_attempts);
    ("theorem3-ratio", theorem3_ratio);
    ("capacity-witness", capacity_witness);
    ("oblivious-gap", oblivious_gap);
    ("stream-equiv", stream_equiv);
  ]

let registry : (string, oracle) Hashtbl.t = Hashtbl.create 8
let registry_mutex = Mutex.create ()

let register name oracle =
  Mutex.lock registry_mutex;
  Hashtbl.replace registry name oracle;
  Mutex.unlock registry_mutex

(* Oracles carrying structured data for analyze. A registered oracle of the
   same name still wins, falling back to the plain detail
   string with no data. *)
let builtin_rich =
  [ ("theorem3-ratio", theorem3_ratio_rich); ("oblivious-gap", oblivious_gap_rich) ]

let evaluate ctx ~names =
  List.map
    (fun name ->
      let registered =
        Mutex.lock registry_mutex;
        let r = Hashtbl.find_opt registry name in
        Mutex.unlock registry_mutex;
        r
      in
      let rich =
        match registered with
        | Some oracle -> Some (fun ctx -> let ok, d = oracle ctx in (ok, d, []))
        | None -> (
            match List.assoc_opt name builtin_rich with
            | Some _ as r -> r
            | None ->
                Option.map
                  (fun oracle ctx -> let ok, d = oracle ctx in (ok, d, []))
                  (List.assoc_opt name builtin))
      in
      match rich with
      | None -> { name; ok = false; detail = "unknown check"; data = [] }
      | Some oracle -> (
          try
            let ok, detail, data = oracle ctx in
            { name; ok; detail; data }
          with e ->
            {
              name;
              ok = false;
              detail = "oracle raised: " ^ Printexc.to_string e;
              data = [];
            }))
    names
