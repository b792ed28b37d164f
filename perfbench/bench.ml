(* The repo benchmark: four workloads (BENCHMARK.json lists the three that
   are steady on the reference host), end-to-end metrics measured with
   tracing off, and a traced run that splits the same work across the
   library's layers. Run it through perfbench/run.py, which builds this
   binary and fixes its environment; README.md in this directory lists the
   workloads, the metrics and the layer each one belongs to.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--commit C]

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}; the lines before it give
   the provenance of the run and every metric in readable form. *)

open Nab_graph
open Nab_core
open Nab_net
module Json = Nab_obs.Json
module Kernel = Nab_field.Kernel
module Plan_cache = Nab_util.Plan_cache
module Timing = Perfbench.Timing
module Scenario = Nab_exp.Scenario
module Runner = Nab_exp.Runner
module Store = Nab_exp.Store
module Analyze = Nab_exp.Analyze
module Checker = Nab_exp.Checker

let now_s () = float_of_int (Timing.now_ns ()) /. 1e9

exception Skipped of string

(* ------------------------------ passes ------------------------------ *)

(* One pass of a workload: set-up, then operations until the time is up. *)
type ctx = {
  seed : int;
  seconds : float;
  full : bool;
      (** the end-to-end pass: set-up timed again throughout the run, and
          the workload's minimum operation count run even past [seconds] *)
  tr : Timing.t option;  (** [Some] in the traced pass *)
}

type pass = {
  setup_s : float;
  samples : float list;  (** wall seconds per operation *)
  ops : int;  (** operations completed: broadcasts, values or scenarios *)
  attempted : int;
  failed : int;
  bits : float;  (** decided payload bits *)
  measured_s : float;  (** wall of the operations, set-up excluded *)
  capacity_frac : float;
  counts : (string * float) list;  (** workload-specific per-layer counts *)
}

let span ctx name f = match ctx.tr with None -> f () | Some t -> Timing.span t name f
let timed ctx factory = match ctx.tr with None -> factory | Some t -> Timing.factory t factory

let note_plan ctx (p : Nab.graph_plan) =
  Option.iter
    (fun t ->
      Timing.count t "plan.coding_attempts" p.Nab.plan_coding_attempts;
      Timing.count t "plan.plans" 1)
    ctx.tr

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

(* Every set-up starts cold: no plan, star or gamma result cached. *)
let cold_start () =
  Plan_cache.clear_all ();
  Params.clear_gamma_cache ()

(* Set-ups take 0.2 ms to 0.2 s and the host's speed drifts over seconds,
   so in the end-to-end pass the set-up is timed again between operations:
   a probe every [probe_every] seconds of the run times cold set-ups for at
   least [probe_s] seconds, and setup_s is the median over the whole run.
   Probes are left out of the operations' wall. A probe's last set-up
   leaves the plan caches filled, so the operations after it run as warm
   as before. *)
let probe_every = 2.0
let probe_s = 0.05

type 'a setup = {
  first : 'a;  (** the state of the first set-up, for the operations *)
  probe : unit -> unit;
  setup_s : unit -> float;  (** median of every set-up timed so far *)
}

let timed_setup ?(dispose = ignore) ctx f =
  let times = ref [] in
  let once () =
    cold_start ();
    let t0 = now_s () in
    let s = f () in
    times := (now_s () -. t0) :: !times;
    s
  in
  let first = once () in
  let probe () =
    let t0 = now_s () in
    while now_s () -. t0 < probe_s do
      dispose (once ())
    done
  in
  { first; probe = (if ctx.full then probe else ignore); setup_s = (fun () -> median !times) }

(* Repeat [step] (which returns the operations it completed) until both the
   time and [min_ops] are reached, probing the set-up in between; returns
   (operations, elapsed seconds without the probes). *)
let run_until ~(setup : _ setup) ~seconds ~min_ops step =
  let t0 = now_s () in
  let probing = ref 0.0 and next_probe = ref probe_every in
  let rec go ops =
    let elapsed = now_s () -. t0 -. !probing in
    if ops >= min_ops && elapsed >= seconds then (ops, elapsed)
    else begin
      if elapsed >= !next_probe then begin
        let p0 = now_s () in
        setup.probe ();
        probing := !probing +. (now_s () -. p0);
        next_probe := elapsed +. probe_every
      end;
      go (ops + step ())
    end
  in
  go 0

let honest = Option.get (Adversary.find "none")

(* Input values drawn from the workload seed; the pool is cycled so the
   measured loop does not pay for generating fresh random values. *)
let input_pool ~l ~seed ~n =
  let rng = Random.State.make [| seed; 0x1ca11 |] in
  let pool = Array.init n (fun _ -> Bitvec.random l rng) in
  fun k -> pool.((k - 1) mod n)

(* Agreement and validity of each instance on its own, so a failure counts
   once per broken instance. *)
let bad_instances (r : Nab.run_report) ~inputs =
  List.length
    (List.filter
       (fun i ->
         let one = { r with Nab.instances = [ i ] } in
         not (Nab.fault_free_agree one && Nab.valid_outputs one ~inputs))
       r.Nab.instances)

let capacity_ub g ~source = (Params.stars g ~source ~f:1).Params.capacity_ub

(* ----------------------- session-bulk / socket-fleet ---------------------- *)

(* Serial [Nab.session_broadcast] calls. Set-up is the session plus its
   first plan; capacity_frac is the simulated throughput over the certified
   Theorem-2 bound. A session keeps every instance report, so the loop moves
   to a fresh session (planned from the warm cache) every [session_calls]
   calls: otherwise heap_peak_mb would grow with the number of calls that
   fit in the time, i.e. with speed. *)
let session_calls = 50

let session_pass ~g ~l ~m ~factory ~min_ops ctx =
  let config = Nab.config ~f:1 ~l_bits:l ~m ~seed:7 () in
  let source = config.Nab.source in
  let cap = span ctx "plan.stars" (fun () -> capacity_ub g ~source) in
  let inputs = input_pool ~l ~seed:ctx.seed ~n:16 in
  let new_session () =
    span ctx "plan.nab_plan" (fun () ->
        let ses = Nab.create_session ~transport:(factory ctx) ~g ~config ~adversary:honest () in
        note_plan ctx (Nab.session_plan_for ses ~source);
        ses)
  in
  let setup = timed_setup ctx new_session in
  let ses = ref setup.first in
  let samples = ref [] and failed = ref 0 and ops = ref 0 and frac = ref nan in
  let finish ses =
    let report = Nab.session_report ses in
    ops := !ops + List.length report.Nab.instances;
    failed := !failed + bad_instances report ~inputs;
    frac := report.Nab.throughput_wall /. cap
  in
  let step () =
    if Nab.session_next_k !ses > session_calls then begin
      finish !ses;
      ses := new_session ()
    end;
    let k = Nab.session_next_k !ses in
    let t0 = now_s () in
    (match span ctx "proto.between_rounds" (fun () -> Nab.session_broadcast !ses (inputs k)) with
    | _ -> samples := (now_s () -. t0) :: !samples
    | exception e ->
        incr failed;
        Printf.printf "instance %d failed: %s\n%!" k (Printexc.to_string e));
    1
  in
  let attempted, measured_s =
    run_until ~setup ~seconds:ctx.seconds ~min_ops:(if ctx.full then min_ops else 1) step
  in
  finish !ses;
  {
    setup_s = setup.setup_s ();
    samples = !samples;
    ops = !ops;
    attempted;
    failed = !failed;
    bits = float_of_int (l * !ops);
    measured_s;
    capacity_frac = !frac;
    counts = [];
  }

let session_bulk_graph = Gen.twin_cliques ~half:3 ~spoke_cap:8 ~intra_cap:8 ~cross_cap:1

let session_bulk ctx =
  session_pass ~g:session_bulk_graph ~l:65536 ~m:16 ~min_ops:200
    ~factory:(fun ctx -> timed ctx Sim.default_factory)
    ctx

let socket_fleet ctx =
  (match Socket.available () with Ok () -> () | Error reason -> raise (Skipped reason));
  let factory ctx =
    match ctx.tr with None -> Socket.factory () | Some t -> Timing.socket_factory t
  in
  session_pass ~g:(Gen.complete ~n:4 ~cap:2) ~l:1024 ~m:16 ~min_ops:200 ~factory ctx

(* ------------------------------ stream-sat ------------------------------ *)

let stream_l = 256
let stream_q = 256
let stream_window = 64

(* The committed capacity fraction of the BENCH_stream.json hyper row at
   the same q: simulated time is deterministic, so the stream must match it
   exactly. *)
let committed_stream_frac () =
  let ic = open_in_bin "BENCH_stream.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let get row k p = Option.bind (Json.member k row) p in
  match Json.of_string text with
  | Error e -> failwith ("BENCH_stream.json: " ^ e)
  | Ok json -> (
      let rows = Option.value ~default:[] (get json "results" Json.get_list) in
      match
        List.find_opt
          (fun r -> get r "name" Json.get_string = Some "hyper" && get r "q" Json.get_int = Some stream_q)
          rows
      with
      | Some r -> Option.get (get r "capacity_frac" Json.get_float)
      | None -> failwith "BENCH_stream.json: no hyper row")

(* Repeated [Nab_stream] batches of q values (create, submit, drain — what
   [Nab_stream.run] does, split so each step can be timed). Set-up is the
   first plan plus the stream creation; each sample is a batch's wall per
   value. *)
let stream_sat ctx =
  let g = Gen.hypercube ~dims:4 ~cap:2 in
  let config = Nab.config ~f:1 ~l_bits:stream_l ~seed:7 () in
  let source = config.Nab.source in
  let expected = committed_stream_frac () in
  let cap = span ctx "plan.stars" (fun () -> capacity_ub g ~source) in
  let inputs = input_pool ~l:stream_l ~seed:ctx.seed ~n:stream_q in
  let create () =
    span ctx "stream.create" (fun () ->
        Nab_stream.create ~transport:(timed ctx Sim.default_factory) ~window:stream_window ~g
          ~config ~adversary:honest ())
  in
  let setup =
    timed_setup ctx ~dispose:Nab_stream.close (fun () ->
        let p =
          span ctx "plan.nab_plan" (fun () ->
              Nab.plan ~config ~total_n:(Digraph.num_vertices g) ~disputes:[] g)
        in
        note_plan ctx p;
        create ())
  in
  let next = ref (Some setup.first) in
  let samples = ref [] and failed = ref 0 and delivered = ref 0 in
  let rounds = ref 0 and batches = ref 0 and flags = ref 0 and rollbacks = ref 0 in
  let sim_wall = ref 0.0 and sim_frac = ref nan in
  let batch st =
    for k = 1 to stream_q do
      ignore (span ctx "stream.submit" (fun () -> Nab_stream.submit st (inputs k)) : int)
    done;
    span ctx "stream.drain" (fun () ->
        Fun.protect
          ~finally:(fun () -> Nab_stream.close st)
          (fun () ->
            Nab_stream.drain st;
            Nab_stream.report st))
  in
  let step () =
    let st = match !next with Some st -> st | None -> create () in
    next := None;
    let t0 = now_s () in
    match batch st with
    | exception e ->
        Printf.printf "stream batch failed: %s\n%!" (Printexc.to_string e);
        failed := !failed + stream_q;
        stream_q
    | r ->
        samples := ((now_s () -. t0) /. float_of_int stream_q) :: !samples;
        let frac = r.Nab_stream.goodput /. cap in
        let bad = (stream_q - r.Nab_stream.delivered) + bad_instances r.Nab_stream.run ~inputs in
        if frac <> expected then
          Printf.printf "capacity_frac %.17g differs from the committed %.17g\n%!" frac expected;
        failed := !failed + if frac <> expected then stream_q else bad;
        delivered := !delivered + r.Nab_stream.delivered;
        incr batches;
        rounds := !rounds + r.Nab_stream.data_rounds;
        flags := !flags + r.Nab_stream.flag_batches;
        rollbacks := !rollbacks + r.Nab_stream.rollbacks;
        sim_wall := !sim_wall +. r.Nab_stream.wall;
        sim_frac := frac;
        stream_q
  in
  let min_ops = if ctx.full then 3 * stream_q else 1 in
  let attempted, measured_s = run_until ~setup ~seconds:ctx.seconds ~min_ops step in
  let per_batch x = float_of_int x /. float_of_int !batches in
  {
    setup_s = setup.setup_s ();
    samples = !samples;
    ops = !delivered;
    attempted;
    failed = !failed;
    bits = float_of_int (stream_l * !delivered);
    measured_s;
    capacity_frac = !sim_frac;
    counts =
      [
        ("stream.data_rounds", per_batch !rounds);
        ("stream.flag_batches", per_batch !flags);
        ("stream.rollbacks", per_batch !rollbacks);
        ("stream.sim_wall_per_value", !sim_wall /. float_of_int !delivered);
      ];
  }

(* ----------------------------- campaign-cold ----------------------------- *)

let campaign_trials = 200

(* Cold campaign cost is dominated by a few heavy sampled topologies (f = 2,
   n up to 9), so soak samples drawn from different seeds differ in cost
   far more than the bounds allow. The scenario mix is therefore one fixed
   soak sample, and the workload seed re-seeds every scenario's protocol
   seed (its input values and coding matrices). *)
let campaign_mix_seed = 11

let campaign_scenarios ~seed =
  let rng = Random.State.make [| seed; 0xca4 |] in
  List.map
    (fun (s : Scenario.t) ->
      let s = { s with Scenario.seed = Random.State.int rng 9999 } in
      { s with Scenario.id = Scenario.derive_id s })
    (Nab_exp.Campaigns.soak ~trials:campaign_trials ~seed:campaign_mix_seed)

(* Runner.run_campaign_store runs scenarios in fixed chunks of 8 and fires
   [on_row] after each chunk (runner.mli), so per-scenario latency is
   sampled as chunk wall over chunk size. *)
let runner_chunk = 8

let scratch = ".bench_build"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let store_counter = ref 0

let fresh_store () =
  if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
  incr store_counter;
  let dir = Filename.concat scratch (Printf.sprintf "store-%d-%d" (Unix.getpid ()) !store_counter) in
  rm_rf dir;
  (dir, Store.open_ ~dir ~salt:"perfbench" ())

let drop_store (dir, store) =
  Store.close store;
  rm_rf dir

(* Measured over the rows that carry the theorem3-ratio oracle's certified
   bound: simulated throughput over capacity_ub, averaged. *)
let row_capacity_frac (row : Runner.row) =
  let ( let* ) = Option.bind in
  let* tw = Option.bind (List.assoc_opt "throughput_wall" row.Runner.stats) Json.get_float in
  let* c = List.find_opt (fun (c : Checker.outcome) -> c.Checker.name = "theorem3-ratio") row.Runner.checks in
  let* ub = Option.bind (List.assoc_opt "capacity_ub" c.Checker.data) Json.get_float in
  if ub > 0.0 then Some (tw /. ub) else None

let row_of_line line =
  match Result.bind (Json.of_string line) Runner.row_of_json with
  | Ok row -> row
  | Error e -> failwith ("unreadable store row: " ^ e)

(* The rows of the last untraced campaign, by id: the traced replay must
   reproduce their outcomes and checker results. *)
let untraced_rows : (string, Runner.row) Hashtbl.t = Hashtbl.create 256

(* Runner's row statistics (the "stats" object of runner.mli's row
   schema), rebuilt here because the replay assembles rows itself. *)
let stats_of ~g (r : Nab.run_report) =
  let count p = List.length (List.filter p r.Nab.instances) in
  let attempts = List.fold_left (fun a (i : Nab.instance_report) -> a + i.Nab.coding_attempts) 0 r.Nab.instances in
  [
    ("n", Json.Int (Digraph.num_vertices g));
    ("edges", Json.Int (Digraph.num_edges g));
    ("faulty", Json.List (List.map (fun v -> Json.Int v) (Vset.elements r.Nab.faulty)));
    ("dc_count", Json.Int r.Nab.dc_count);
    ("disputes", Json.Int (List.length r.Nab.disputes));
    ("mismatches", Json.Int (count (fun (i : Nab.instance_report) -> i.Nab.mismatch)));
    ("coding_attempts", Json.Int attempts);
    ("throughput_wall", Json.float r.Nab.throughput_wall);
    ("throughput_pipelined", Json.float r.Nab.throughput_pipelined);
  ]

(* One scenario as the sequence of public calls Runner.run_scenario makes,
   each timed: the topology, Nab's planning, every broadcast through the
   timing transport, and each oracle on its own. The planning steps are also
   timed standalone on G_1 (arborescence packing, coding generation, the
   star quantities and the Theorem-2 witnesses) — work the untraced run does
   not repeat, so it is excluded from trace.overhead_frac. *)
let replay_only = [ "plan.arborescence"; "plan.coding"; "plan.capacity_verify" ]

let replay_scenario t ~seen_plans (s : Scenario.t) =
  let span name f = Timing.span t name f in
  let try_span name f = try ignore (span name f) with _ -> () in
  match
    let g = span "plan.graph" (fun () -> Scenario.graph s) in
    let config = Scenario.config s in
    let adversary = Scenario.adversary_t s in
    let inputs = Scenario.inputs s in
    let transport = Timing.factory t (Scenario.transport_factory s) in
    let { Nab.source; f; m; seed; _ } = config in
    let total_n = Digraph.num_vertices g in
    let plan_key = Printf.sprintf "%s|s%d f%d m%d r%d" (Digraph.fingerprint g) source f m seed in
    if not (Hashtbl.mem seen_plans plan_key) then begin
      Hashtbl.add seen_plans plan_key ();
      try_span "plan.arborescence" (fun () ->
          Arborescence.pack g ~root:source ~k:(Params.gamma_k g ~source));
      try_span "plan.coding" (fun () ->
          let omega = Params.omega_k g ~total_n ~f ~disputes:[] in
          let rho = Params.rho_k g ~total_n ~f ~disputes:[] in
          let _, attempts = Coding.generate_correct g ~omega ~rho ~m ~seed () in
          Timing.count t "plan.coding_attempts" attempts;
          Timing.count t "plan.plans" 1)
    end;
    let checks = s.Scenario.checks in
    if List.mem "theorem3-ratio" checks || List.mem "oblivious-gap" checks then
      try_span "plan.stars" (fun () -> Params.stars g ~source ~f);
    if List.mem "theorem3-ratio" checks then
      try_span "plan.capacity_verify" (fun () -> Capacity.verify g ~source ~f);
    let ses =
      span "plan.nab_plan" (fun () -> Nab.create_session ~transport ~g ~config ~adversary ())
    in
    for k = 1 to s.Scenario.q do
      if Digraph.mem_vertex (Nab.session_graph ses) source then
        ignore (span "plan.nab_plan" (fun () -> Nab.session_plan_for ses ~source));
      ignore (span "proto.between_rounds" (fun () -> Nab.session_broadcast ses (inputs k)))
    done;
    let report = Nab.session_report ses in
    let ctx = { Checker.scenario = s; g; report; inputs } in
    let outcomes =
      List.concat_map (fun name -> span ("checker." ^ name) (fun () -> Checker.evaluate ctx ~names:[ name ])) checks
    in
    (g, report, outcomes)
  with
  | g, report, outcomes ->
      let ok = List.for_all (fun (c : Checker.outcome) -> c.Checker.ok) outcomes in
      { Runner.scenario = s; outcome = (if ok then Runner.Pass else Runner.Violation); checks = outcomes; stats = stats_of ~g report }
  | exception e -> { Runner.scenario = s; outcome = Runner.Error (Printexc.to_string e); checks = []; stats = [] }

(* Replay a whole campaign into [store]: rows added and committed on
   Runner's cadence, then seal and analyze. *)
let replay_campaign t ~scenarios ~store ~on_row =
  let seen_ids = Hashtbl.create 256 and seen_plans = Hashtbl.create 64 in
  List.iter
    (fun (s : Scenario.t) ->
      if not (Hashtbl.mem seen_ids s.Scenario.id) then begin
        Hashtbl.add seen_ids s.Scenario.id ();
        let row = replay_scenario t ~seen_plans s in
        let line = Json.to_string (Runner.row_to_json row) in
        Timing.span t "store.add" (fun () -> Store.add store ~id:s.Scenario.id ~line);
        if Store.pending store >= Runner.default_commit_rows then
          Timing.span t "store.commit" (fun () -> Store.commit store);
        on_row (row_of_line line)
      end)
    scenarios;
  Timing.span t "store.commit" (fun () -> Store.commit store);
  Timing.span t "store.seal" (fun () ->
      Store.seal ~jobs:1 store;
      Store.close store)

(* Cold campaigns over the same sampled scenarios until the time is up.
   Set-up is the sample plus opening a fresh store; each repetition starts
   from empty caches and is timed over run, seal and analyze. *)
let campaign_cold ctx =
  let open_campaign () =
    span ctx "store.open" (fun () ->
        let scenarios = campaign_scenarios ~seed:ctx.seed in
        (scenarios, fresh_store ()))
  in
  let setup = timed_setup ctx ~dispose:(fun (_, st) -> drop_store st) open_campaign in
  let next = ref (Some setup.first) in
  let last_dir = ref None in
  let samples = ref [] and failed = ref 0 and bits = ref 0 and run_s = ref 0.0 in
  let fracs = ref [] in
  let step () =
    let scenarios, (dir, store) = match !next with Some s -> s | None -> open_campaign () in
    next := None;
    cold_start ();
    Option.iter rm_rf !last_dir;
    last_dir := Some dir;
    let ran = ref 0 in
    let count_row (row : Runner.row) =
      incr ran;
      (match row.Runner.outcome with
      | Runner.Pass -> bits := !bits + (row.Runner.scenario.Scenario.l_bits * row.Runner.scenario.Scenario.q)
      | Runner.Violation | Runner.Error _ ->
          incr failed;
          Printf.printf "scenario %s did not pass\n%!" row.Runner.scenario.Scenario.id);
      Option.iter (fun x -> fracs := x :: !fracs) (row_capacity_frac row);
      match ctx.tr with
      | None -> ()
      | Some _ -> (
          match Hashtbl.find_opt untraced_rows row.Runner.scenario.Scenario.id with
          | Some u when u.Runner.outcome = row.Runner.outcome && u.Runner.checks = row.Runner.checks -> ()
          | _ ->
              incr failed;
              Printf.printf "replay of %s differs from the untraced store row\n%!"
                row.Runner.scenario.Scenario.id)
    in
    let t0 = now_s () in
    (match ctx.tr with
    | None ->
        let mark = ref t0 in
        let on_row i row =
          if i mod runner_chunk = 0 then begin
            let now = now_s () in
            let size = min runner_chunk (List.length scenarios - i) in
            samples := ((now -. !mark) /. float_of_int size) :: !samples;
            mark := now
          end;
          count_row row
        in
        ignore (Runner.run_campaign_store ~jobs:1 ~store ~on_row scenarios : Runner.store_summary);
        Store.seal ~jobs:1 store;
        Store.close store
    | Some t -> replay_campaign t ~scenarios ~store ~on_row:count_row);
    let rows =
      match span ctx "analyze" (fun () -> Analyze.of_source ~jobs:1 (Analyze.Store_dir dir)) with
      | Ok a -> Option.value ~default:(-1) (Option.bind (Json.member "rows" (Analyze.to_json a)) Json.get_int)
      | Error e ->
          Printf.printf "analyze failed: %s\n%!" e;
          -1
    in
    if rows <> !ran then begin
      incr failed;
      Printf.printf "analyze saw %d rows, the campaign ran %d\n%!" rows !ran
    end;
    run_s := !run_s +. (now_s () -. t0);
    !ran
  in
  let attempted, _ = run_until ~setup ~seconds:ctx.seconds ~min_ops:1 step in
  (* Keep the rows of the last untraced store for the traced replay. *)
  Option.iter
    (fun dir ->
      if ctx.tr = None then begin
        Hashtbl.reset untraced_rows;
        Store.fold ~dir ~init:() ~f:(fun () line ->
            let row = row_of_line line in
            Hashtbl.replace untraced_rows row.Runner.scenario.Scenario.id row)
      end;
      rm_rf dir)
    !last_dir;
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  {
    setup_s = setup.setup_s ();
    samples = !samples;
    ops = attempted;
    attempted;
    failed = !failed;
    bits = float_of_int !bits;
    measured_s = !run_s;
    capacity_frac = mean !fracs;
    counts = [];
  }

(* ------------------------------ workloads ------------------------------ *)

type workload = {
  name : string;
  params : (string * Json.t) list;
  row_len : int;  (** equality-check row length for the kernel probe *)
  run : ctx -> pass;
}

let workloads =
  Json.
    [
      {
        name = "session-bulk";
        params =
          [
            ("topology", Str "Twin_cliques{half=3,spoke=8,intra=8,cross=1}");
            ("n", Int 7); ("f", Int 1); ("l_bits", Int 65536); ("m", Int 16);
            ("min_calls", Int 200); ("backend", Str "sync");
          ];
        row_len = 8;
        run = session_bulk;
      };
      {
        name = "stream-sat";
        params =
          [
            ("topology", Str "Hypercube{dims=4,cap=2}");
            ("n", Int 16); ("f", Int 1); ("l_bits", Int stream_l); ("m", Int 16);
            ("window", Int stream_window); ("q", Int stream_q); ("backend", Str "sync");
          ];
        row_len = 2;
        run = stream_sat;
      };
      {
        name = "socket-fleet";
        params =
          [
            ("topology", Str "Complete{n=4,cap=2}");
            ("n", Int 4); ("f", Int 1); ("l_bits", Int 1024); ("m", Int 16);
            ("min_calls", Int 200); ("backend", Str "socket-unix");
          ];
        row_len = 2;
        run = socket_fleet;
      };
      {
        name = "campaign-cold";
        params =
          [
            ("campaign", Str "soak"); ("trials", Int campaign_trials);
            ("jobs", Int 1); ("commit_rows", Int Runner.default_commit_rows);
          ];
        row_len = 4;
        run = campaign_cold;
      };
    ]

(* ------------------------------ metrics ------------------------------ *)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let end_to_end (p : pass) =
  let per_s x = x /. p.measured_s in
  [
    ("setup_s", p.setup_s, "s");
    ("bcast_p50_ms", 1000.0 *. percentile 0.50 p.samples, "ms");
    ("bcast_p95_ms", 1000.0 *. percentile 0.95 p.samples, "ms");
    ("goodput_mbps", per_s p.bits /. 1e6, "Mbit/s");
    ("capacity_frac", p.capacity_frac, "frac");
    ("scenarios_per_s", per_s (float_of_int p.ops), "1/s");
    ("heap_peak_mb", heap_mb (), "MB");
  ]

(* The protocol phases named in the per-layer metrics; any other ~phase
   label folds into "other". *)
let phases = [ "phase1"; "equality-check"; "flags"; "dispute-control"; "stream-data"; "stream-flags"; "other" ]

let oracles =
  [ "agreement"; "validity"; "dc-budget"; "honest-present"; "theorem1-attempts"; "theorem3-ratio"; "oblivious-gap"; "other" ]

let strip_prefix prefix s =
  let n = String.length prefix in
  if String.length s > n && String.sub s 0 n = prefix then Some (String.sub s n (String.length s - n))
  else None

(* Each span name is owned by exactly one per-layer time metric, so the
   self times of the metrics plus the unattributed remainder sum to the
   traced wall. Spans of a family ([<span prefix><label>]) map to
   [<metric prefix><label>], labels outside the known set to "other". *)
let owned_spans =
  [
    ("plan.nab_plan", "plan.nab_plan_ms");
    ("plan.arborescence", "plan.arborescence_ms");
    ("plan.stars", "plan.stars_ms");
    ("plan.coding", "plan.coding_ms");
    ("plan.capacity_verify", "plan.capacity_verify_ms");
    ("plan.graph", "plan.graph_ms");
    ("transport.create", "transport.create_ms");
    ("transport.close", "transport.close_ms");
    ("transport.query", "transport.query_ms");
    ("proto.between_rounds", "proto.between_rounds_ms");
    ("stream.create", "stream.create_ms");
    ("stream.submit", "stream.submit_ms");
    ("stream.drain", "stream.drain_ms");
    ("store.open", "store.open_ms");
    ("store.add", "store.add_us");
    ("store.commit", "store.commit_ms");
    ("store.seal", "store.seal_ms");
    ("analyze", "analyze.ms");
  ]

let span_families =
  [
    ("transport.round_self.", "transport.round_self_ms.", phases);
    ("proto.outbox.", "proto.outbox_ms.", phases);
    ("checker.", "checker.ms.", oracles);
  ]

let metric_of_span name =
  let in_family (span_prefix, metric_prefix, labels) =
    Option.map
      (fun l -> metric_prefix ^ (if List.mem l labels then l else "other"))
      (strip_prefix span_prefix name)
  in
  match List.assoc_opt name owned_spans with
  | Some m -> m
  | None -> (
      match List.find_map in_family span_families with
      | Some m -> m
      | None -> invalid_arg ("no per-layer metric owns span " ^ name))

let time_metrics =
  List.map snd owned_spans
  @ List.concat_map (fun (_, prefix, labels) -> List.map (( ^ ) prefix) labels) span_families

(* Time one kernel primitive at a field degree (every workload runs at
   m = 16) and the workload's row length. *)
let axpy_ns_per_symbol ~m ~len =
  let fld = Nab_field.Gf2p.create m in
  let k = Kernel.of_field fld in
  let rng = Random.State.make [| 0xa1; m; len |] in
  let x = Array.init len (fun _ -> Nab_field.Gf2p.random fld rng) in
  let y = Array.init len (fun _ -> Nab_field.Gf2p.random fld rng) in
  let calls = max 1 (2_000_000 / len) in
  let t0 = Timing.now_ns () in
  for _ = 1 to calls do
    Kernel.axpy k ~a:3 ~x ~xoff:0 ~y ~yoff:0 ~len
  done;
  float_of_int (Timing.now_ns () - t0) /. float_of_int (calls * len)

let plan_cache_hit_ratio () =
  let hits, lookups =
    List.fold_left
      (fun (h, n) (_, (s : Plan_cache.stats)) -> (h + s.Plan_cache.hits, n + s.Plan_cache.hits + s.Plan_cache.misses))
      (0, 0) (Plan_cache.global_stats ())
  in
  if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups

(* The traced run: an untraced pass and a traced pass of half the time
   each; the per-layer split comes from the traced one. Every span's self
   time lands in exactly one metric, so sum(layer ms) + unattributed = wall
   holds in integer nanoseconds; a breach counts as a failure. *)
let per_layer w ctx =
  let u = w.run { ctx with tr = None } in
  let axpy_ns = axpy_ns_per_symbol ~m:16 ~len:w.row_len in
  let t = Timing.create () in
  let k0 = Kernel.stats () and gc0 = Gc.quick_stat () in
  let start = Timing.now_ns () in
  let p = w.run { ctx with tr = Some t } in
  let wall_ns = Timing.now_ns () - start in
  let kd = Kernel.diff_stats k0 (Kernel.stats ()) and gc1 = Gc.quick_stat () in
  let owned = Hashtbl.create 64 in
  List.iter
    (fun (name, ns, _) ->
      let m = metric_of_span name in
      Hashtbl.replace owned m (ns + Option.value ~default:0 (Hashtbl.find_opt owned m)))
    (Timing.spans t);
  let attributed = Timing.total_self_ns t in
  let unattributed = wall_ns - attributed in
  let ops = float_of_int p.ops in
  let kbit = p.bits /. 1000.0 in
  let per_op_ms ns = float_of_int ns /. 1e6 /. ops in
  let time_metric m =
    let ns = Option.value ~default:0 (Hashtbl.find_opt owned m) in
    if m = "store.add_us" then (m, per_op_ms ns *. 1000.0, "us") else (m, per_op_ms ns, "ms")
  in
  let replay_ns = List.fold_left (fun a n -> a + Timing.self_ns t n) 0 replay_only in
  let traced_per_op = (p.measured_s -. (float_of_int replay_ns /. 1e9)) /. ops in
  let untraced_per_op = u.measured_s /. float_of_int u.ops in
  let transports = Timing.calls t "transport.create" in
  let per_transport x = if transports = 0 then 0.0 else float_of_int x /. float_of_int transports in
  let rounds =
    List.fold_left
      (fun a (name, _, calls) -> if strip_prefix "transport.round_self." name = None then a else a + calls)
      0 (Timing.spans t)
  in
  let plans = Timing.counter t "plan.plans" in
  let count name = Option.value ~default:0.0 (List.assoc_opt name p.counts) in
  let metrics =
    [
      ("trace.wall_ms", float_of_int wall_ns /. 1e6 /. ops, "ms");
      ("trace.overhead_frac", (traced_per_op /. untraced_per_op) -. 1.0, "frac");
      ("unattributed_frac", float_of_int unattributed /. float_of_int wall_ns, "frac");
      ( "plan.coding_attempts",
        (if plans = 0 then 0.0 else float_of_int (Timing.counter t "plan.coding_attempts") /. float_of_int plans),
        "count" );
      ("plan_cache.hit_ratio", plan_cache_hit_ratio (), "frac");
      ("kernel.flops_per_kbit", float_of_int kd.Kernel.flops /. kbit, "flop/kbit");
      ("kernel.symbols_per_kbit", float_of_int kd.Kernel.symbols /. kbit, "sym/kbit");
      ("kernel.axpy_ns_per_symbol", axpy_ns, "ns");
      ("kernel.est_share", float_of_int kd.Kernel.flops *. axpy_ns /. float_of_int wall_ns, "frac");
      ("transport.rounds_per_instance", per_transport rounds, "count");
      ("socket.bytes_per_payload_bit", float_of_int (Timing.counter t "socket.bytes") /. p.bits, "B/bit");
      ("socket.frames_per_instance", per_transport (Timing.counter t "socket.frames"), "count");
      ("stream.data_rounds", count "stream.data_rounds", "count");
      ("stream.flag_batches", count "stream.flag_batches", "count");
      ("stream.rollbacks", count "stream.rollbacks", "count");
      ("stream.sim_wall_per_value", count "stream.sim_wall_per_value", "simtime");
      ("gc.minor_words_per_kbit", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. kbit, "word/kbit");
      ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. ops, "1/op");
    ]
    @ List.map time_metric time_metrics
  in
  let breach = if unattributed < 0 then 1 else 0 in
  Printf.printf "trace: wall %d ns = attributed %d ns + unattributed %d ns over %d operations\n" wall_ns
    attributed unattributed p.ops;
  let steps = [ "plan.arborescence_ms"; "plan.coding_ms"; "plan.stars_ms"; "plan.capacity_verify_ms" ] in
  let step_ns m = Option.value ~default:0 (Hashtbl.find_opt owned m) in
  let planning = List.fold_left (fun a m -> a + step_ns m) 0 steps in
  if planning > 0 then begin
    let top = List.fold_left (fun a m -> if step_ns m > step_ns a then m else a) (List.hd steps) steps in
    Printf.printf "plan: largest planning step %s, %.1f%% of the timed planning steps\n" top
      (100.0 *. float_of_int (step_ns top) /. float_of_int planning)
  end;
  (metrics, u.attempted + p.attempted, u.failed + p.failed + breach)

(* -------------------------------- main -------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload session-bulk|stream-sat|socket-fleet|campaign-cold --seed N \
     --seconds S --trace 0|1 [--commit C]";
  exit 2

let () =
  Socket.exec_node_if_requested ();
  (* One domain: Unix.fork (socket fleets) refuses to run once a Pool
     domain exists, and single-domain wall time attributes cleanly. *)
  Nab_util.Pool.set_jobs 1;
  let args = Array.to_list Sys.argv in
  let arg name =
    let rec find = function x :: v :: _ when x = name -> Some v | _ :: rest -> find rest | [] -> None in
    find args
  in
  let int_arg name = Option.bind (arg name) int_of_string_opt in
  let w =
    match arg "--workload" with
    | Some n -> ( match List.find_opt (fun w -> w.name = n) workloads with Some w -> w | None -> usage ())
    | None -> usage ()
  in
  let seed, seconds, trace =
    match (int_arg "--seed", int_arg "--seconds", int_arg "--trace") with
    | Some s, Some secs, Some tr when secs > 0 && (tr = 0 || tr = 1) -> (s, float_of_int secs, tr = 1)
    | _ -> usage ()
  in
  let provenance =
    Json.Obj
      [
        ("workload", Json.Str w.name);
        ("seed", Json.Int seed);
        ("seconds", Json.float seconds);
        ("trace", Json.Bool trace);
        ("params", Json.Obj w.params);
        ("ocaml", Json.Str Sys.ocaml_version);
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("nab_jobs", (match Sys.getenv_opt "NAB_JOBS" with Some j -> Json.Str j | None -> Json.Null));
        ("pool_jobs", Json.Int (Nab_util.Pool.jobs ()));
        ("commit", Json.Str (Option.value ~default:"unknown" (arg "--commit")));
      ]
  in
  Printf.printf "provenance %s\n%!" (Json.to_string provenance);
  match
    if trace then per_layer w { seed; seconds = seconds /. 2.0; full = false; tr = None }
    else
      let p = w.run { seed; seconds; full = true; tr = None } in
      Printf.printf "%d operations in %.3f s, %d latency samples\n" p.ops p.measured_s (List.length p.samples);
      (end_to_end p, p.attempted, p.failed)
  with
  | exception Skipped reason ->
      Printf.printf "%s: skipped: %s\n" w.name reason;
      exit 3
  | metrics, attempted, failed ->
      List.iter (fun (name, v, unit) -> Printf.printf "%-34s %.6g %s\n" name v unit) metrics;
      let result =
        Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) -> (name, Json.Obj [ ("value", Json.float v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]
      in
      print_endline (Json.to_string result)
