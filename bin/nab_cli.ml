(* Command-line driver: run NAB on generated networks, compute capacity
   bounds, render the pipelining schedule, export graphs. Every command
   names its network as a Scenario topology, and [run] builds a whole
   Scenario from its flags and executes it with Runner.execute — the code
   campaigns run — so a campaign's printed rerun line replays its row
   exactly. *)

open Cmdliner
open Nab_graph
open Nab_core
open Nab_exp

let ( let* ) = Result.bind

let setup_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning)

(* ---- shared graph-family argument ---- *)

(* The named families at size [n] and link capacity [cap], as scenario
   topologies; "@path" loads a Graphfile network as an explicit edge list. *)
let topo_of_family family ~n ~cap ~seed : (Scenario.topo, string) result =
  let open Scenario in
  match family with
  | _ when String.length family > 1 && family.[0] = '@' -> (
      let path = String.sub family 1 (String.length family - 1) in
      match Graphfile.parse_file path with
      | Ok g -> Ok (Explicit { vertices = Digraph.vertices g; edges = Digraph.edges g })
      | Error e -> Error (Printf.sprintf "cannot load %s: %s" path e))
  | "complete" -> Ok (Complete { n; cap })
  | "ring" -> Ok (Ring { n; cap })
  | "chords" -> Ok (Chords { n; cap; chord_cap = cap })
  | "random" ->
      Ok (Random_feasible { n; f = 1; p = 0.7; min_cap = 1; max_cap = cap; gseed = seed })
  | "dumbbell" -> Ok (Dumbbell { clique = max 3 (n / 2); clique_cap = cap; bridge_cap = 1 })
  | "hypercube" ->
      let dims = max 2 (int_of_float (Float.round (Float.log2 (float_of_int (max 4 n))))) in
      Ok (Hypercube { dims; cap })
  | "torus" -> Ok (Torus { rows = 3; cols = max 3 (n / 3); cap })
  | "twin" ->
      let half = max 2 ((n - 1) / 2) in
      Ok (Twin_cliques { half; spoke_cap = 4 * cap; intra_cap = 4 * cap; cross_cap = 1 })
  | "star" -> Ok (Star_mesh { n; spoke_cap = cap; mesh_cap = 1 })
  | "fig1" -> Ok Fig1
  | "fig2" -> Ok Fig2
  | other -> Error (Printf.sprintf "unknown graph family %S" other)

let family_arg =
  let doc =
    "Graph family: complete, ring, chords, random, dumbbell, twin, star, \
     hypercube, torus, fig1, fig2 - or @FILE to load a Graphfile network."
  in
  Arg.(value & opt string "complete" & info [ "family"; "g" ] ~docv:"FAMILY" ~doc)

let n_arg = Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")
let cap_arg = Arg.(value & opt int 2 & info [ "cap" ] ~docv:"CAP" ~doc:"Link capacity.")
let f_arg = Arg.(value & opt int 1 & info [ "faults"; "f" ] ~docv:"F" ~doc:"Fault budget.")
let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* An unknown family or an unreadable @FILE is a usage error (exit 124). *)
let topo_term =
  Term.(
    term_result'
      (const (fun family n cap seed -> topo_of_family family ~n ~cap ~seed)
      $ family_arg $ n_arg $ cap_arg $ seed_arg))

(* Resolve the adversary and the configuration before running, so a bad
   name or field is a usage error rather than an uncaught exception. *)
let checked s =
  match (Scenario.adversary_t s, Scenario.config s) with
  | _ -> Ok s
  | exception Invalid_argument e -> Error e

let graph_of topo = Scenario.graph (Scenario.make topo ())
(* ---- observability arguments ---- *)

let trace_arg =
  let doc =
    "Write a JSONL trace (spans, rounds, sampled messages) to $(docv); see \
     doc/API.md for the schema. Validate with trace_lint."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Write aggregated counters and gauges as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let sample_arg =
  let doc =
    "With --trace: also record every $(docv)-th delivered message as a trace \
     event (0 = rounds only)."
  in
  Arg.(value & opt int 0 & info [ "sample-messages" ] ~docv:"S" ~doc)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Print the run report as a single JSON object instead of tables.")

(* Build a context over the requested artifact files, hand it to [f], and
   flush/close everything even if [f] raises. *)
let with_obs ~trace ~metrics ~sample f =
  let file_sink make = function
    | None -> None
    | Some path ->
        let oc = open_out path in
        Some (make oc, oc)
  in
  match
    List.filter_map Fun.id
      [ file_sink Nab_obs.jsonl_sink trace; file_sink Nab_obs.csv_sink metrics ]
  with
  | [] -> f Nab_obs.null
  | pairs ->
      let ctx = Nab_obs.make ~sample_messages:sample (List.map fst pairs) in
      Fun.protect
        ~finally:(fun () ->
          Nab_obs.close ctx;
          List.iter (fun (_, oc) -> close_out oc) pairs)
        (fun () -> f ctx)

(* ---- run ---- *)

(* A stalled stream and disputes no f nodes explain are named outcomes of
   the run, not a usage error (124) or an internal one (125). *)
let stalled_exit = 3
let model_violation_exit = 4
let socket_exit = 5

let run_cmd =
  let adversary_arg =
    let names = String.concat ", " (List.map fst Adversary.all) in
    Arg.(
      value & opt string "none"
      & info [ "adversary"; "a" ] ~docv:"ADV"
          ~doc:
            ("Adversary strategy: " ^ names
           ^ " - or chaos:SEED / garbage:SEED for other seeds."))
  in
  let q_arg = Arg.(value & opt int 8 & info [ "q" ] ~docv:"Q" ~doc:"Instances to run.") in
  let l_arg =
    Arg.(value & opt int 1024 & info [ "l" ] ~docv:"L" ~doc:"Input bits per instance.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the per-phase breakdown.")
  in
  let flag_backend_arg =
    Arg.(
      value
      & opt (enum [ ("eig", `Eig); ("phase-king", `Phase_king) ]) `Eig
      & info [ "flag-backend" ] ~docv:"BB"
          ~doc:"Broadcast_Default backend for the step-2.2 flags.")
  in
  let m_arg =
    Arg.(
      value & opt int 16
      & info [ "m" ] ~docv:"M"
          ~doc:"Equality-check field degree (GF(2^M) symbol width), 1-61.")
  in
  let stream_arg =
    Arg.(
      value & opt (some int) None
      & info [ "stream" ] ~docv:"Q"
          ~doc:
            "Stream $(docv) values through the multiplexed session layer \
             (Nab_stream) instead of running instances serially; reports \
             amortized goodput. Overrides --q.")
  in
  let stream_window_arg =
    Arg.(
      value & opt int 32
      & info [ "stream-window" ] ~docv:"W"
          ~doc:"With --stream: instances admitted in flight concurrently.")
  in
  let flag_batch_arg =
    Arg.(
      value & opt (some int) None
      & info [ "flag-batch" ] ~docv:"B"
          ~doc:
            "With --stream: consecutive instances sharing one step-2.2 flag \
             broadcast (default W/2; 1 = per-instance serial fidelity).")
  in
  let run family topo f seed adversary q l m verbose flag_backend trace metrics sample
      json backend stream stream_window flag_batch =
    setup_logs ();
    let* s =
      checked
        (Scenario.make ~adversary ~f ~l_bits:l ~m ~seed
           ~q:(Option.value stream ~default:q)
           ~flag_backend
           ?stream:(Option.map (fun _ -> stream_window) stream)
           ~backend topo ())
    in
    let e =
      try with_obs ~trace ~metrics ~sample (fun obs -> Runner.execute ~obs ?flag_batch s)
      with
      | Nab_stream.Stalled undelivered ->
          Printf.eprintf
            "nab: stalled: %d instance(s) undelivered (the transport lost traffic: a \
             crashed node or a lossy fault spec)\n"
            undelivered;
          exit stalled_exit
      | Nab.Unexplained_disputes { f; disputes } ->
          Printf.eprintf
            "nab: model violation: %d dispute(s) not explainable by at most f=%d faulty \
             node(s) (the transport broke the synchronous model, e.g. a latency past a \
             round)\n"
            (List.length disputes) f;
          exit model_violation_exit
      | Nab_net.Socket.Socket_error msg ->
          Printf.eprintf "nab: socket: %s\n" msg;
          exit socket_exit
    in
    let g = e.Runner.g and inputs = e.Runner.inputs and q = s.Scenario.q in
    (match e.Runner.stream with
    | Some r ->
        let module Json = Nab_obs.Json in
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  [
                    ( "stream",
                      Json.Obj
                        [
                          ("q", Json.Int q);
                          ("window", Json.Int r.Nab_stream.window);
                          ("flag_batch", Json.Int r.Nab_stream.flag_batch);
                          ("wall", Json.float r.Nab_stream.wall);
                          ("goodput", Json.float r.Nab_stream.goodput);
                          ("delivered", Json.Int r.Nab_stream.delivered);
                          ("data_rounds", Json.Int r.Nab_stream.data_rounds);
                          ("flag_batches", Json.Int r.Nab_stream.flag_batches);
                          ("rollbacks", Json.Int r.Nab_stream.rollbacks);
                        ] );
                    ("run", Report.run_to_json r.Nab_stream.run);
                  ]))
        else begin
          Printf.printf
            "stream: %d values over %s (n=%d), f=%d, L=%d, adversary=%s, \
             window=%d, flag batch=%d\n"
            q family (Digraph.num_vertices g) f l adversary r.Nab_stream.window
            r.Nab_stream.flag_batch;
          Printf.printf
            "wall %.1f, goodput %.3f bits/unit (serial per-value pays the full \
             pipeline fill)\n"
            r.Nab_stream.wall r.Nab_stream.goodput;
          Printf.printf "data rounds %d, flag batches %d, rollbacks %d\n"
            r.Nab_stream.data_rounds r.Nab_stream.flag_batches
            r.Nab_stream.rollbacks;
          Printf.printf "agreement=%b validity=%b dispute-control runs=%d\n"
            (Nab.fault_free_agree r.Nab_stream.run)
            (Nab.valid_outputs r.Nab_stream.run ~inputs)
            r.Nab_stream.run.Nab.dc_count
        end
    | None ->
        let report = e.Runner.report in
        if json then
          print_endline (Nab_obs.Json.to_string (Report.run_to_json report))
        else begin
          Printf.printf "network: %s (n=%d), f=%d, L=%d, Q=%d, adversary=%s, faulty=[%s]\n"
            family (Digraph.num_vertices g) f l q adversary
            (String.concat "," (List.map string_of_int (Vset.elements report.faulty)));
          Printf.printf "%-4s %-7s %-5s %-5s %-9s %-9s %-4s %s\n" "k" "gamma_k" "rho_k"
            "flag" "wall" "pipelined" "DC" "new disputes";
          List.iter
            (fun (i : Nab.instance_report) ->
              Printf.printf "%-4d %-7d %-5d %-5b %-9.2f %-9.2f %-4b %s\n" i.k i.gamma_k
                i.rho_k i.mismatch i.wall_time i.pipelined_time i.dc_run
                (String.concat ","
                   (List.map (fun (a, b) -> Printf.sprintf "{%d,%d}" a b) i.new_disputes)))
            report.instances;
          Printf.printf
            "agreement=%b validity=%b dispute-control runs=%d (budget f(f+1)=%d)\n"
            (Nab.fault_free_agree report)
            (Nab.valid_outputs report ~inputs)
            report.dc_count
            (f * (f + 1));
          Printf.printf "throughput: wall %.3f bits/unit, pipelined %.3f bits/unit\n"
            report.throughput_wall report.throughput_pipelined;
          if verbose then
            List.iter
              (fun (i : Nab.instance_report) ->
                Printf.printf "\n-- instance %d --\n" i.Nab.k;
                Format.printf "%a@." Report.pp_phase_breakdown i)
              report.instances
        end);
    Ok ()
  in
  let term =
    Cli_flags.with_jobs
      Term.(
        term_result'
          (const run $ family_arg $ topo_term $ f_arg $ seed_arg $ adversary_arg $ q_arg
         $ l_arg $ m_arg $ verbose_arg $ flag_backend_arg $ trace_arg $ metrics_arg
         $ sample_arg $ json_arg $ Cli_flags.backend_term $ stream_arg
         $ stream_window_arg $ flag_batch_arg))
  in
  let exits =
    Cmd.Exit.info stalled_exit
      ~doc:
        "a streamed run ($(b,--stream)) stalled: the transport lost traffic, so \
         some instances can never be delivered (a crashed node or a lossy \
         fault spec)."
    :: Cmd.Exit.info model_violation_exit
         ~doc:
           "the run left the fault model: dispute control found disputes that \
            no f faulty nodes explain, which honest nodes only produce when the \
            transport breaks the synchronous model (an async latency past a \
            round boundary)."
    :: Cmd.Exit.info socket_exit
         ~doc:
           "the socket backend ($(b,--backend socket)) failed: it could not \
            set up its node fleet (for example, no socket directory could be \
            made under TMPDIR) or a node process died or stopped answering."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "run" ~exits ~doc:"Run Q instances of NAB under an adversary.") term

(* ---- bounds ---- *)

let bounds_cmd =
  let witness_arg =
    Arg.(value & flag & info [ "witness" ] ~doc:"Exhibit the Theorem-2 cut witnesses.")
  in
  let bounds family topo f witness =
    setup_logs ();
    let g = graph_of topo in
    let s = Params.stars g ~source:1 ~f in
    Printf.printf "network: %s (n=%d, %d edges, f=%d)\n" family (Digraph.num_vertices g)
      (Digraph.num_edges g) f;
    Printf.printf "gamma* = %d, rho* = %d\n" s.gamma_star s.rho_star;
    Printf.printf "throughput lower bound (eq. 6): %.3f\n" s.throughput_lb;
    Printf.printf "capacity upper bound (Thm 2):   %.3f\n" s.capacity_ub;
    Printf.printf "ratio: %.3f (Thm 3 guarantees >= %s)\n" s.ratio
      (if s.half_capacity_condition then "1/2" else "1/3");
    if witness then begin
      print_newline ();
      Capacity.pp_report Format.std_formatter g ~source:1 ~f;
      match Capacity.verify g ~source:1 ~f with
      | Ok () -> Printf.printf "witnesses verified against the bounds\n"
      | Error e -> Printf.printf "WITNESS MISMATCH: %s\n" e
    end
  in
  let term =
    Cli_flags.with_jobs
      Term.(const bounds $ family_arg $ topo_term $ f_arg $ witness_arg)
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Compute gamma*, rho* and the Theorem 2/3 bounds.")
    term

(* ---- pipeline ---- *)

let pipeline_cmd =
  let q_arg = Arg.(value & opt int 5 & info [ "q" ] ~doc:"Instances.") in
  let hops_arg = Arg.(value & opt int 3 & info [ "hops" ] ~doc:"Phase-1 hop count.") in
  (* A non-positive count is a usage error (exit 124), not an uncaught
     Invalid_argument from Pipeline.render. *)
  let render q hops =
    if q < 1 then Error (Printf.sprintf "-q must be positive, got %d" q)
    else if hops < 1 then Error (Printf.sprintf "--hops must be positive, got %d" hops)
    else Ok (print_string (Pipeline.render ~q ~hops))
  in
  let term = Term.(term_result' (const render $ q_arg $ hops_arg)) in
  Cmd.v (Cmd.info "pipeline" ~doc:"Render the Figure-3 pipelining schedule.") term

(* ---- consensus ---- *)

let consensus_cmd =
  let l_arg =
    Arg.(value & opt int 64 & info [ "l" ] ~docv:"L" ~doc:"Input bits per proposal.")
  in
  let adversary_arg =
    let names = String.concat ", " (List.map fst Adversary.all) in
    Arg.(
      value & opt string "ec-liar"
      & info [ "adversary"; "a" ] ~docv:"ADV" ~doc:("Adversary strategy: " ^ names ^ "."))
  in
  let run family topo f seed adversary l =
    setup_logs ();
    let* s = checked (Scenario.make ~adversary ~f ~l_bits:l ~seed topo ()) in
    let g = Scenario.graph s and config = Scenario.config s in
    let adv = Scenario.adversary_t s in
    (* A realistic vote: honest proposers agree on the payload, the last
       node proposes something else. *)
    let rng = Random.State.make [| seed; 0xc0 |] in
    let common = Bitvec.random l rng in
    let outlier = Bitvec.random l rng in
    let last = List.fold_left max 0 (Digraph.vertices g) in
    let inputs v = if v = last then outlier else common in
    let r = Consensus.run ~g ~config ~adversary:adv ~inputs in
    let faulty = adv.Adversary.pick_faulty ~g ~source:1 ~f in
    Printf.printf "consensus on %s (n=%d, f=%d) under %s; faulty=[%s]\n" family
      (Digraph.num_vertices g) f adversary
      (String.concat "," (List.map string_of_int (Vset.elements faulty)));
    List.iter
      (fun (v, d) ->
        Printf.printf "node %d decides %s%s\n" v (Bitvec.to_hex d)
          (if Vset.mem v faulty then "  (faulty)" else ""))
      r.Consensus.decisions;
    Printf.printf "fault-free agreement: %b\n" (Consensus.all_agree r ~faulty);
    Ok ()
  in
  let term =
    Cli_flags.with_jobs
      Term.(
        term_result'
          (const run $ family_arg $ topo_term $ f_arg $ seed_arg $ adversary_arg $ l_arg))
  in
  Cmd.v
    (Cmd.info "consensus" ~doc:"Multi-valued consensus from n parallel NAB broadcasts.")
    term

(* ---- stats ---- *)

let stats_cmd =
  let stats topo f =
    setup_logs ();
    let g = graph_of topo in
    Format.printf "%a@." Metrics.pp (Metrics.compute g);
    if f > 0 && Connectivity.meets_requirement g ~f then begin
      let s = Params.stars g ~source:1 ~f in
      Format.printf "at f = %d: gamma* = %d, rho* = %d, T_NAB >= %.2f, C_BB <= %.2f@." f
        s.Params.gamma_star s.Params.rho_star s.Params.throughput_lb s.Params.capacity_ub
    end
  in
  let term =
    Cli_flags.with_jobs Term.(const stats $ topo_term $ f_arg)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Describe a network and its fault budget.") term

(* ---- dot ---- *)

let dot_cmd =
  let dot family topo = print_string (Dot.of_digraph ~name:family (graph_of topo)) in
  let term = Term.(const dot $ family_arg $ topo_term) in
  Cmd.v (Cmd.info "dot" ~doc:"Emit Graphviz DOT for a network family.") term

let () =
  (* Must run before anything else: when this binary is re-executed as a
     socket-backend node process, it becomes the node's event loop and
     never returns. In a normal invocation it installs the re-exec hook. *)
  Nab_net.Socket.exec_node_if_requested ();
  let doc = "Network-Aware Byzantine broadcast (Liang & Vaidya, PODC 2012)" in
  let info = Cmd.info "nab" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ run_cmd; bounds_cmd; consensus_cmd; pipeline_cmd; stats_cmd; dot_cmd ]))
