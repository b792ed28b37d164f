open Nab_graph
open Nab_net
open Nab_classic

type config = {
  f : int;
  source : int;
  l_bits : int;
  m : int;
  seed : int;
  flag_backend : [ `Eig | `Phase_king ];
}

let default_config =
  { f = 1; source = 1; l_bits = 1024; m = 16; seed = 7; flag_backend = `Eig }

(* Field validation happens at construction time; the graph-dependent
   requirements (source present, n >= 3f+1) wait for create_session. *)
let validate_config c =
  if c.f < 0 then invalid_arg "Nab.config: f must be >= 0";
  if c.l_bits < 1 then invalid_arg "Nab.config: l_bits must be positive";
  if c.m < 1 || c.m > 61 then invalid_arg "Nab.config: m must be within 1..61";
  c

let config ?(f = default_config.f) ?(source = default_config.source)
    ?(l_bits = default_config.l_bits) ?(m = default_config.m)
    ?(seed = default_config.seed) ?(flag_backend = default_config.flag_backend) () =
  validate_config { f; source; l_bits; m; seed; flag_backend }

let with_f f c = validate_config { c with f }
let with_source source c = validate_config { c with source }
let with_l_bits l_bits c = validate_config { c with l_bits }
let with_m m c = validate_config { c with m }
let with_seed seed c = validate_config { c with seed }
let with_flag_backend flag_backend c = validate_config { c with flag_backend }

type instance_report = {
  k : int;
  value_bits : int;
  gamma_k : int;
  rho_k : int;
  decisions : (int * Bitvec.t) list;
  mismatch : bool;
  dc_run : bool;
  reduced_to_phase1 : bool;
  coding_attempts : int;
  wall_time : float;
  pipelined_time : float;
  phase_stats : Sim.phase_stat list;
  utilization : ((int * int) * float) list;
  new_disputes : Params.dispute list;
}

type run_report = {
  config : config;
  adversary_name : string;
  faulty : Vset.t;
  instances : instance_report list;
  dc_count : int;
  disputes : Params.dispute list;
  final_graph : Digraph.t;
  total_wall : float;
  total_pipelined : float;
  throughput_wall : float;
  throughput_pipelined : float;
}

(* Pad L up to a multiple of rho * m (the striped equality check needs whole
   symbols per stripe; Phase 1 uses balanced slices, so gamma imposes no
   divisibility constraint). The paper assumes exact divisibility "to
   simplify the presentation"; padding is at most rho * m - 1 bits. *)
let padded_bits ~l ~rho ~m =
  let unit = rho * m in
  (l + unit - 1) / unit * unit

(* Per-graph cached protocol structure: spanning trees and verified coding
   matrices are part of the (deterministic) algorithm description for G_k,
   so they are computed once per distinct graph. *)
type graph_plan = {
  plan_gamma : int;
  plan_rho : int;
  plan_trees : Arborescence.tree list;
  plan_coding : Coding.t;
  plan_coding_attempts : int;
}

let graph_key g = (Digraph.edges g, Digraph.vertices g)

let make_plan ~config ~total_n ~disputes gk =
  let gamma = Params.gamma_k gk ~source:config.source in
  let rho = Params.rho_k gk ~total_n ~f:config.f ~disputes in
  if gamma < 1 then invalid_arg "Nab: some node unreachable from the source";
  if rho < 1 then invalid_arg "Nab: U_k < 2, equality check impossible";
  let trees = Arborescence.pack gk ~root:config.source ~k:gamma in
  let omega = Params.omega_k gk ~total_n ~f:config.f ~disputes in
  let coding, attempts =
    Coding.generate_correct gk ~omega ~rho ~m:config.m ~seed:config.seed ()
  in
  {
    plan_gamma = gamma;
    plan_rho = rho;
    plan_trees = trees;
    plan_coding = coding;
    plan_coding_attempts = attempts;
  }

(* Process-wide plan memo: campaigns replay the same topology families
   across many scenarios and pool domains, but a plan is a deterministic
   function of (G_k, source, f, n, disputes, m, seed) — compute each one
   once per process. Values are immutable (trees, coding matrices), so
   sharing across domains is safe; the session-local ses_plans table still
   decides when the nab.plans_built / nab.coding_attempts counters fire, so
   run artifacts are byte-identical whatever the cache temperature. *)
let plan_cache : graph_plan Nab_util.Plan_cache.t =
  Nab_util.Plan_cache.create ~name:"nab.plan" ()

let plan_key ~config ~total_n ~disputes gk =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Digraph.fingerprint gk);
  Printf.bprintf buf "|s%d f%d n%d m%d r%d|d" config.source config.f total_n
    config.m config.seed;
  List.iter (fun (a, b) -> Printf.bprintf buf " %d-%d" a b) (List.sort compare disputes);
  Buffer.contents buf

let plan ~config ~total_n ~disputes gk =
  let config = validate_config config in
  Nab_util.Plan_cache.find_or_compute plan_cache
    ~key:(plan_key ~config ~total_n ~disputes gk)
    (fun () -> make_plan ~config ~total_n ~disputes gk)

type session = {
  ses_g : Digraph.t;
  ses_config : config;
  ses_adversary : Adversary.t;
  ses_faulty : Vset.t;
  ses_total_n : int;
  ses_obs : Nab_obs.ctx;
  ses_transport : Transport.factory;
  (* Keyed by (G_k, source): a multiplexing session layer plans per
     submission source, the single-source driver always hits its own
     config.source entry. *)
  ses_plans : (((int * int * int) list * int list) * int, graph_plan) Hashtbl.t;
  mutable ses_gk : Digraph.t;
  mutable ses_disputes : Params.dispute list;
  mutable ses_dc_count : int;
  mutable ses_next_k : int;
  mutable ses_instances : instance_report list; (* reversed *)
}

let create_session ?(obs = Nab_obs.null) ?(transport = Sim.default_factory) ~g
    ~config ~adversary () =
  let { f; source; _ } = validate_config config in
  if not (Digraph.mem_vertex g source) then invalid_arg "Nab.create_session: source absent";
  if not (Connectivity.meets_requirement g ~f) then
    invalid_arg "Nab.run: need n >= 3f+1 and connectivity >= 2f+1";
  let faulty = adversary.Adversary.pick_faulty ~g ~source ~f in
  if Vset.cardinal faulty > f then
    invalid_arg "Nab.create_session: adversary picked too many nodes";
  {
    ses_g = g;
    ses_config = config;
    ses_adversary = adversary;
    ses_faulty = faulty;
    ses_total_n = Digraph.num_vertices g;
    ses_obs = obs;
    ses_transport = transport;
    ses_plans = Hashtbl.create 4;
    ses_gk = g;
    ses_disputes = [];
    ses_dc_count = 0;
    ses_next_k = 1;
    ses_instances = [];
  }

let session_graph ses = ses.ses_gk
let session_disputes ses = ses.ses_disputes
let session_dc_count ses = ses.ses_dc_count
let session_faulty ses = ses.ses_faulty
let session_instances ses = List.rev ses.ses_instances
let session_config ses = ses.ses_config
let session_obs ses = ses.ses_obs
let session_transport ses = ses.ses_transport
let session_adversary ses = ses.ses_adversary
let session_total_n ses = ses.ses_total_n
let session_physical_graph ses = ses.ses_g
let session_next_k ses = ses.ses_next_k

(* ---- The resumable session record ---------------------------------
   The cross-instance state both drivers share: G_k, accumulated
   disputes, per-graph plans, the dispute-control budget. A multiplexing
   driver (Nab_stream) interleaves many instances over it. *)

let session_excluded ses = ses.ses_total_n - Digraph.num_vertices ses.ses_gk
let session_f_eff ses = max 0 (ses.ses_config.f - session_excluded ses)
let session_reduced ses = session_excluded ses >= ses.ses_config.f && ses.ses_config.f > 0

let session_plan_for ses ~source =
  let key = (graph_key ses.ses_gk, source) in
  match Hashtbl.find_opt ses.ses_plans key with
  | Some p -> p
  | None ->
      let config = { ses.ses_config with source } in
      let p = plan ~config ~total_n:ses.ses_total_n ~disputes:ses.ses_disputes ses.ses_gk in
      Hashtbl.add ses.ses_plans key p;
      Nab_obs.add ses.ses_obs "nab.coding_attempts" p.plan_coding_attempts;
      Nab_obs.add ses.ses_obs "nab.plans_built" 1;
      p

let session_value_bits ses plan =
  padded_bits ~l:ses.ses_config.l_bits ~rho:plan.plan_rho ~m:ses.ses_config.m

let session_dc_apply ses =
  ses.ses_gk <-
    Params.apply_disputes ses.ses_gk ~total_n:ses.ses_total_n ~f:ses.ses_config.f
      ~disputes:ses.ses_disputes

let session_push_report ses report =
  ses.ses_next_k <- report.k + 1;
  ses.ses_instances <- report :: ses.ses_instances;
  Nab_obs.add ses.ses_obs "nab.instances" 1

(* ---- One instance's decision steps ------------------------------------
   Both drivers take an instance through the functions below. They differ
   only in where "what v received" comes from: the serial driver reads
   its transport's inbox round by round, the stream reads the transcript
   it computed at admission. *)

type instance = {
  ins_k : int;
  ins_source : int;
  ins_gk : Digraph.t;
  ins_plan : graph_plan;
  ins_value_bits : int;
  ins_value : Bitvec.t;
  ins_actx : Adversary.ctx;
  ins_phase1 : Phase1.adversary;
  ins_ec : Equality_check.adversary;
  ins_reduced : bool;
}

let session_instance ses ~k ~source input =
  let { l_bits; f; seed; _ } = ses.ses_config in
  let input = Bitvec.pad_to input l_bits in
  if Bitvec.length input <> l_bits then invalid_arg "Nab: input longer than L";
  if not (Digraph.mem_vertex ses.ses_gk source) then None
  else begin
    let plan = session_plan_for ses ~source in
    let value_bits = session_value_bits ses plan in
    let actx =
      {
        Adversary.instance = k;
        gk = ses.ses_gk;
        trees = plan.plan_trees;
        coding = plan.plan_coding;
        source;
        f;
        value_bits;
        rng = Random.State.make [| seed; k; 0xadf |];
      }
    in
    Some
      {
        ins_k = k;
        ins_source = source;
        ins_gk = ses.ses_gk;
        ins_plan = plan;
        ins_value_bits = value_bits;
        ins_value = Bitvec.pad_to input value_bits;
        ins_actx = actx;
        ins_phase1 = ses.ses_adversary.Adversary.phase1 actx;
        ins_ec = ses.ses_adversary.Adversary.ec actx;
        ins_reduced = session_reduced ses;
      }
  end

(* Agreed quantities are read from the lowest-id fault-free vantage point
   (agreement makes every honest vantage identical; the test suite checks
   this). *)
let vantage ses ins =
  List.find (fun v -> not (Vset.mem v ses.ses_faulty)) (Digraph.vertices ins.ins_gk)

let agree_flags ses ins ~net ~routing ~phase ~inputs ~default =
  let adversary = ses.ses_adversary and actx = ins.ins_actx in
  let nodes = Digraph.vertices ins.ins_gk in
  let f = session_f_eff ses and faulty = ses.ses_faulty in
  let backend =
    match ses.ses_config.flag_backend with
    | `Phase_king when Digraph.num_vertices ses.ses_gk > 4 * f -> `Phase_king
    | `Phase_king ->
        Logs.warn (fun m ->
            m "phase-king needs n > 4f (n=%d, f=%d); falling back to EIG"
              (Digraph.num_vertices ses.ses_gk) f);
        `Eig
    | `Eig -> `Eig
  in
  let decisions =
    match backend with
    | `Eig ->
        Eig.broadcast_all ~net ~nodes ~phase ~routing ~f ~inputs ~default ~faulty
          ~adversary:(adversary.Adversary.flag_eig actx)
          ~reliable_hooks:(adversary.Adversary.reliable actx) ()
    | `Phase_king ->
        Phase_king.broadcast_all ~net ~nodes ~phase ~routing ~f ~inputs ~default ~faulty
          ~reliable_hooks:(adversary.Adversary.reliable actx) ()
  in
  let vantage = vantage ses ins in
  fun src -> Hashtbl.find_opt decisions (src, vantage)

let dispute_control ses ins ~net ~routing ~flags ?claims_of () =
  ses.ses_dc_count <- ses.ses_dc_count + 1;
  let adversary = ses.ses_adversary and actx = ins.ins_actx in
  let ctx =
    {
      Dispute.gk = ins.ins_gk;
      total_n = ses.ses_total_n;
      f = session_f_eff ses;
      source = ins.ins_source;
      trees = ins.ins_plan.plan_trees;
      coding = ins.ins_plan.plan_coding;
      value_bits = ins.ins_value_bits;
      flags;
    }
  in
  let verdicts =
    Dispute.run ~net ~routing ~ctx ~faulty:ses.ses_faulty ~true_input:ins.ins_value
      ~claims_adv:(adversary.Adversary.dc_claims actx)
      ?claims_of
      ?input_adv:(adversary.Adversary.dc_input actx)
      ~eig_adv:(adversary.Adversary.dc_eig actx) ()
  in
  let vantage_verdict = List.assoc (vantage ses ins) verdicts in
  let new_disputes =
    List.filter
      (fun d -> not (List.mem d ses.ses_disputes))
      vantage_verdict.Dispute.new_disputes
  in
  ses.ses_disputes <- List.sort compare (new_disputes @ ses.ses_disputes);
  let obs = ses.ses_obs in
  Nab_obs.add obs "nab.dc_runs" 1;
  Nab_obs.add obs "nab.disputes" (List.length new_disputes);
  if Nab_obs.enabled obs then
    Nab_obs.point obs ~scope:"nab" ~t:(Transport.timing net).Transport.wall
      ~attrs:
        [
          ("k", Nab_obs.I ins.ins_k);
          ("new_disputes", Nab_obs.I (List.length new_disputes));
          ( "provably_faulty",
            Nab_obs.I (Vset.cardinal vantage_verdict.Dispute.provably_faulty) );
        ]
      "dispute-control";
  (verdicts, new_disputes)

(* Per-instance roll-up into the instrumentation context: cumulative bits
   per link and rounds/bits per phase, from the instance's simulator. *)
let flush_sim_obs obs net =
  if Nab_obs.enabled obs then begin
    List.iter
      (fun ((s, d), b) ->
        Nab_obs.add obs (Printf.sprintf "sim.link_bits.%d->%d" s d) b)
      (Transport.link_bits net);
    List.iter
      (fun (ps : Sim.phase_stat) ->
        Nab_obs.add obs ("sim.phase." ^ ps.Sim.phase ^ ".rounds") ps.Sim.rounds;
        Nab_obs.add obs ("sim.phase." ^ ps.Sim.phase ^ ".bits") ps.Sim.bits_total)
      (Transport.timing net).Sim.phases
  end

let instance_report ses ~k ?ins ?dc ?(decisions = []) ?net ?(latency = 0.0) () =
  let l_bits = ses.ses_config.l_bits in
  let wall_time, pipelined_time, phase_stats, utilization =
    match net with
    | Some net ->
        flush_sim_obs ses.ses_obs net;
        let tm = Transport.timing net in
        (tm.Sim.wall, tm.Sim.pipelined, tm.Sim.phases, Transport.utilization net)
    | None -> (latency, 0.0, [], [])
  in
  let value_bits, gamma_k, rho_k, coding_attempts, reduced_to_phase1, decisions =
    match ins with
    | None ->
        (* The source is provably faulty: agree on the default value. *)
        ( l_bits, 0, 0, 0, false,
          List.map (fun v -> (v, Bitvec.create l_bits)) (Digraph.vertices ses.ses_gk) )
    | Some ins ->
        ( ins.ins_value_bits,
          ins.ins_plan.plan_gamma,
          ins.ins_plan.plan_rho,
          ins.ins_plan.plan_coding_attempts,
          ins.ins_reduced,
          List.map (fun (v, bv) -> (v, Bitvec.slice bv ~pos:0 ~len:l_bits)) decisions )
  in
  {
    k;
    value_bits;
    gamma_k;
    rho_k;
    decisions;
    mismatch = dc <> None;
    dc_run = dc <> None;
    reduced_to_phase1;
    coding_attempts;
    wall_time;
    pipelined_time;
    phase_stats;
    utilization;
    new_disputes = Option.value dc ~default:[];
  }

let session_broadcast ses input0 =
  let obs = ses.ses_obs in
  let k = ses.ses_next_k in
  (* Field-kernel work issued while this instance runs (coding-matrix
     verification, equality-check encoding, dispute replay). Deltas are
     counters only — no trace events — so golden traces are unaffected; they
     are deterministic because every field operation of an instance runs on
     the calling domain (pool workers only do graph work). *)
  let kernel_stats0 =
    if Nab_obs.enabled obs then Some (Nab_field.Kernel.stats ()) else None
  in
  Nab_obs.span_begin obs ~scope:"nab" ~attrs:[ ("k", Nab_obs.I k) ] "instance";
  let report =
    match session_instance ses ~k ~source:ses.ses_config.source input0 with
    | None -> instance_report ses ~k ()
    | Some ins ->
        let source = ins.ins_source and faulty = ses.ses_faulty in
        let plan = ins.ins_plan in
        (* The simulator carries the full physical network: Appendix D runs
           Broadcast_Default over the 2f+1-connectivity of the ORIGINAL
           graph G (disputed links still physically exist; reliability comes
           from node-disjoint-path majority, not from trusting them).
           Phases 1 and 2.1 structurally restrict themselves to G_k. *)
        (* keep_events: dispute control draws honest claims from the
           delivery trace (Dispute.honest_claims reads events_of_phase). *)
        let net = ses.ses_transport ~obs ~keep_events:true ses.ses_g in
        (* Whatever the instance's fate (including a raised oracle), the
           backend's external resources are released — the socket backend
           holds node processes and fds per instance. *)
        Fun.protect ~finally:(fun () -> Transport.close net) @@ fun () ->
        (* ---- Phase 1: unreliable broadcast over the tree packing ---- *)
        let received =
          Phase1.run ~net ~phase:"phase1" ~trees:plan.plan_trees ~source
            ~value:ins.ins_value ~faulty ~adversary:ins.ins_phase1 ()
        in
        (* The NAB data plane hands over with nothing still in flight
           whatever the backend (Phase1.run drains otherwise). *)
        assert (Transport.pending_count net = 0);
        let sizes = Phase1.slice_sizes ~value_bits:ins.ins_value_bits ~trees:plan.plan_gamma in
        let assembled v =
          if v = source then ins.ins_value
          else Phase1.assemble ~slice_sizes:sizes (received v)
        in
        let verts = Digraph.vertices ins.ins_gk in
        let report ?dc decisions = instance_report ses ~k ~ins ?dc ~decisions ~net () in
        (* All faulty nodes are excluded: Phase 1 alone is reliable. *)
        if ins.ins_reduced then report (List.map (fun v -> (v, assembled v)) verts)
        else begin
          (* ---- Phase 2, step 2.1: equality check ---- *)
          let x_of v = Bitvec.to_symbols (assembled v) ~sym_bits:ses.ses_config.m in
          let own_flags =
            Equality_check.run ~net ~graph:ins.ins_gk ~phase:"equality-check"
              ~coding:plan.plan_coding ~values:x_of ~faulty ~adversary:ins.ins_ec ()
          in
          (* ---- Phase 2, step 2.2: broadcast the 1-bit flags ---- *)
          let routing = Routing.build ses.ses_g ~f:ses.ses_config.f in
          let agreed =
            agree_flags ses ins ~net ~routing ~phase:"flags"
              ~inputs:(List.map (fun (v, b) -> (v, Wire.Flag b)) own_flags)
              ~default:(Wire.Flag false)
          in
          let flags =
            List.map
              (fun v -> (v, match agreed v with Some (Wire.Flag b) -> b | Some _ | None -> false))
              verts
          in
          if not (List.exists snd flags) then
            report (List.map (fun v -> (v, assembled v)) verts)
          else begin
            (* ---- Phase 3: dispute control ---- *)
            let verdicts, new_disputes = dispute_control ses ins ~net ~routing ~flags () in
            let r =
              report ~dc:new_disputes
                (List.map (fun (v, verdict) -> (v, verdict.Dispute.output)) verdicts)
            in
            (* The synchronous fabric is always quiet here; an async
               backend under latency faults may still have stragglers in
               flight — flush them so nothing is silently stranded (the
               drain is a no-op when the fabric is quiet). *)
            if Transport.pending_count net > 0 then begin
              let (_ : int -> (int * Packet.t) list) =
                Transport.drain net ~phase:"drain"
              in
              ()
            end;
            session_dc_apply ses;
            r
          end
        end
  in
  session_push_report ses report;
  (match kernel_stats0 with
  | Some s0 ->
      let d = Nab_field.Kernel.diff_stats s0 (Nab_field.Kernel.stats ()) in
      Nab_obs.add obs "nab.kernel_flops" d.Nab_field.Kernel.flops;
      Nab_obs.add obs "nab.kernel_symbols" d.Nab_field.Kernel.symbols
  | None -> ());
  if Nab_obs.enabled obs then
    Nab_obs.span_end obs ~scope:"nab" ~t:report.wall_time
      ~attrs:
        [
          ("k", Nab_obs.I k);
          ("gamma_k", Nab_obs.I report.gamma_k);
          ("rho_k", Nab_obs.I report.rho_k);
          ("value_bits", Nab_obs.I report.value_bits);
          ("mismatch", Nab_obs.B report.mismatch);
          ("dc_run", Nab_obs.B report.dc_run);
          ("wall", Nab_obs.F report.wall_time);
          ("pipelined", Nab_obs.F report.pipelined_time);
        ]
      "instance";
  report

let session_report ses =
  let instances = session_instances ses in
  let total_wall = List.fold_left (fun acc r -> acc +. r.wall_time) 0.0 instances in
  let total_pipelined =
    List.fold_left (fun acc r -> acc +. r.pipelined_time) 0.0 instances
  in
  let q = List.length instances in
  let bits_total = float_of_int (ses.ses_config.l_bits * q) in
  {
    config = ses.ses_config;
    adversary_name = ses.ses_adversary.Adversary.name;
    faulty = ses.ses_faulty;
    instances;
    dc_count = ses.ses_dc_count;
    disputes = ses.ses_disputes;
    final_graph = ses.ses_gk;
    total_wall;
    total_pipelined;
    throughput_wall = (if total_wall > 0.0 then bits_total /. total_wall else infinity);
    throughput_pipelined =
      (if total_pipelined > 0.0 then bits_total /. total_pipelined else infinity);
  }

let run ?obs ?transport ~g ~config ~adversary ~inputs ~q () =
  let ses = create_session ?obs ?transport ~g ~config ~adversary () in
  for k = 1 to q do
    ignore (session_broadcast ses (inputs k))
  done;
  session_report ses

let fault_free_agree report =
  List.for_all
    (fun inst ->
      let honest =
        List.filter (fun (v, _) -> not (Vset.mem v report.faulty)) inst.decisions
      in
      match honest with
      | [] -> true
      | (_, d0) :: rest -> List.for_all (fun (_, d) -> Bitvec.equal d d0) rest)
    report.instances

let valid_outputs report ~inputs =
  List.for_all
    (fun inst ->
      if Vset.mem report.config.source report.faulty then true
      else begin
        let expected =
          Bitvec.pad_to (inputs inst.k) report.config.l_bits
        in
        List.for_all
          (fun (v, d) -> Vset.mem v report.faulty || Bitvec.equal d expected)
          inst.decisions
      end)
    report.instances
