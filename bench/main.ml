(* Benchmark & reproduction harness.

   One experiment per paper artifact (figures 1-3, Theorems 1-3, the
   dispute-control amortisation argument and the introduction's
   capacity-oblivious gap), each printing the same rows/series the paper
   reports, followed by bechamel micro-benchmarks of the substrate.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only e5    # one experiment
     dune exec bench/main.exe -- --no-micro   # skip bechamel timing
     dune exec bench/main.exe -- --jobs 4     # domain count for the sweeps
                                              # (also: NAB_JOBS env var)
     dune exec bench/main.exe -- --trace t.jsonl --metrics m.csv
                                              # observability artifacts for
                                              # the protocol runs
     dune exec bench/main.exe -- --json reports.jsonl
                                              # one Report.run_to_json line
                                              # per NAB run (jq-able)

   The analytic sweeps (E5, E10, E11) and the gamma*/U_k machinery they call
   fan out over Nab_util.Pool. Results are keyed by input index and every
   simulator/RNG seed is fixed, so the printed values are identical whatever
   the job count — only the wall-clock (and the timing columns that report
   it) changes.
*)

open Nab_graph
open Nab_core

let section id title =
  Printf.printf "\n=== %s: %s ===\n\n" (String.uppercase_ascii id) title

let hr n = Printf.printf "%s\n" (String.make n '-')

let inputs_for ~l ~seed = Bitvec.random_stream l (Random.State.make [| seed |])

(* --trace/--metrics/--json artifact plumbing (wired up in main below).
   Only the sequential protocol runs report here: E11 executes its runs
   under Pool.map, where the event interleaving would depend on the job
   count, and the bechamel micro-loop would drown the trace. *)
let obs = ref Nab_obs.null
let json_chan = ref None

let nab_run ~ex ~g ~config ~adversary ~inputs ~q () =
  let report = Nab.run ~obs:!obs ~g ~config ~adversary ~inputs ~q () in
  (match !json_chan with
  | None -> ()
  | Some oc ->
      let j =
        match Report.run_to_json report with
        | Nab_obs.Json.Obj fields ->
            Nab_obs.Json.Obj (("experiment", Nab_obs.Json.Str ex) :: fields)
        | j -> j
      in
      output_string oc (Nab_obs.Json.to_string j);
      output_char oc '\n');
  report

(* ------------------------------------------------------------------ *)
(* E1 - Figure 1: example graphs, MINCUTs, gamma, Omega_k, U_k         *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "e1" "Figure 1 - min cuts, gamma, Omega_k, U_k (paper's worked example)";
  let g = Gen.figure1a in
  Printf.printf "%-28s %-8s %-8s\n" "quantity" "paper" "measured";
  hr 46;
  let row name paper measured =
    Printf.printf "%-28s %-8s %-8s %s\n" name paper measured
      (if paper = measured then "ok" else "** MISMATCH **")
  in
  row "MINCUT(G,1,2)" "2" (string_of_int (Maxflow.max_flow g ~src:1 ~dst:2));
  row "MINCUT(G,1,3)" "3" (string_of_int (Maxflow.max_flow g ~src:1 ~dst:3));
  row "MINCUT(G,1,4)" "2" (string_of_int (Maxflow.max_flow g ~src:1 ~dst:4));
  row "gamma_k" "2" (string_of_int (Params.gamma_k g ~source:1));
  let disputes = [ Params.norm_dispute 2 3 ] in
  let omega = Params.omega_k Gen.figure1b ~total_n:4 ~f:1 ~disputes in
  row "|Omega_k| (2,3 disputed)" "2" (string_of_int (List.length omega));
  List.iter
    (fun h ->
      Printf.printf "  Omega_k contains {%s}\n"
        (String.concat "," (List.map string_of_int (Vset.elements h))))
    omega;
  row "U_k" "2" (string_of_int (Params.u_k Gen.figure1b ~total_n:4 ~f:1 ~disputes));
  row "edge between 2 and 4?" "no"
    (if Digraph.mem_edge g 2 4 || Digraph.mem_edge g 4 2 then "yes" else "no")

(* ------------------------------------------------------------------ *)
(* E2 - Figure 2: spanning-tree packings                              *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "e2" "Figure 2 - unit-capacity spanning trees in the example network";
  let g = Gen.figure2 in
  Printf.printf "directed graph: %d nodes, %d edges, cap(1,2) = %d\n"
    (Digraph.num_vertices g) (Digraph.num_edges g) (Digraph.cap g 1 2);
  let gamma = Maxflow.broadcast_mincut g ~src:1 in
  Printf.printf "gamma = %d  =>  packing %d unit-capacity spanning trees:\n" gamma gamma;
  let trees = Arborescence.pack g ~root:1 ~k:gamma in
  List.iteri
    (fun i t ->
      Printf.printf "  tree %d (%s): %s\n" (i + 1)
        (if i = 0 then "solid" else "dotted")
        (String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) t)))
    trees;
  let usage12 = List.length (List.filter (fun t -> List.mem (1, 2) t) trees) in
  Printf.printf "edge (1,2) used by %d trees = its capacity %d (paper: 2)\n" usage12
    (Digraph.cap g 1 2);
  (match Arborescence.verify g ~root:1 trees with
  | Ok () -> Printf.printf "packing verified: capacity-disjoint, all spanning\n"
  | Error e -> Printf.printf "** packing INVALID: %s **\n" e);
  let u = Ugraph.of_digraph g in
  let t = Spanning.bfs_tree u ~root:2 in
  Printf.printf "undirected version (fig 2b): %d undirected edges\n" (Ugraph.num_edges u);
  Printf.printf "a spanning tree of it (fig 2d): %s (valid: %b)\n"
    (String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "%d--%d" a b) t))
    (Spanning.is_spanning_tree u t)

(* ------------------------------------------------------------------ *)
(* E3 - Figure 3: pipelining                                          *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "e3" "Figure 3 - pipelined schedule (one hop per round)";
  print_string (Pipeline.render ~q:5 ~hops:3);
  (* Measured counterpart: on a 3-hop-deep network, per-instance pipelined
     cost equals the Figure-3 round length L/gamma + L/rho + flag overhead. *)
  let g = Gen.dumbbell ~clique:3 ~clique_cap:4 ~bridge_cap:2 in
  let l = 4096 in
  let config = Nab.config ~f:1 ~l_bits:l ~m:16 () in
  let report =
    nab_run ~ex:"e3" ~g ~config ~adversary:Adversary.none
      ~inputs:(inputs_for ~l ~seed:3) ~q:2 ()
  in
  let inst = List.hd report.Nab.instances in
  let analytic_core =
    float_of_int inst.Nab.value_bits
    *. ((1.0 /. float_of_int inst.Nab.gamma_k) +. (1.0 /. float_of_int inst.Nab.rho_k))
  in
  Printf.printf
    "\nmeasured pipelined per-instance time on a 6-node dumbbell (L=%d):\n" l;
  Printf.printf "  L/gamma + L/rho (paper's round core) = %.1f\n" analytic_core;
  Printf.printf "  measured (incl. O(n^a) flag broadcast) = %.1f\n" inst.Nab.pipelined_time;
  Printf.printf "  overhead fraction = %.1f%% (vanishes as L grows)\n"
    (100.0 *. (inst.Nab.pipelined_time -. analytic_core) /. inst.Nab.pipelined_time);
  (* End-to-end pipelined execution: Q fault-free instances overlapped on one
     fabric by Nab_stream, with a window that admits all of them at once. *)
  Printf.printf
    "\nend-to-end pipelined execution (Q instances staggered on one simulator):\n\n";
  Printf.printf "%-5s %-12s %-14s %-12s %-10s %s\n" "Q" "completion" "per-instance"
    "round core" "thpt" "delivered";
  hr 66;
  List.iter
    (fun q ->
      let inputs = inputs_for ~l ~seed:3 in
      let r =
        Nab_stream.run ~window:q ~g ~config ~adversary:Adversary.none ~inputs ~q ()
      in
      let run = r.Nab_stream.run in
      let delivered =
        r.Nab_stream.delivered = q
        && Nab.fault_free_agree run
        && Nab.valid_outputs run ~inputs
        && List.for_all (fun (i : Nab.instance_report) -> not i.Nab.mismatch) run.Nab.instances
      in
      let wall = r.Nab_stream.wall in
      Printf.printf "%-5d %-12.0f %-14.0f %-12.0f %-10.3f %b\n" q wall
        (wall /. float_of_int q) analytic_core
        (float_of_int (l * q) /. wall)
        delivered)
    [ 1; 2; 4; 8; 16; 32 ];
  Printf.printf
    "\n(per-instance time decays toward the round core as the pipeline fills -\n\
     Q + hops rounds for Q instances instead of Q x hops.)\n"

(* ------------------------------------------------------------------ *)
(* E4 - Theorem 1: random coding-matrix correctness probability        *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "e4"
    "Theorem 1 - failure probability of random coding matrices vs field size";
  let g = Gen.complete ~n:4 ~cap:2 in
  let omega = Params.omega_k g ~total_n:4 ~f:1 ~disputes:[] in
  let rho = Params.rho_k g ~total_n:4 ~f:1 ~disputes:[] in
  let trials = 400 in
  Printf.printf "network: K4 cap 2, rho = %d, %d trials per field size\n\n" rho trials;
  Printf.printf "%-6s %-14s %-14s %s\n" "m" "bound (Thm 1)" "measured" "ok";
  hr 44;
  List.iter
    (fun m ->
      let failures = ref 0 in
      for seed = 1 to trials do
        let c = Coding.generate g ~rho ~m ~seed:(seed * 31) in
        if not (Coding.is_correct c ~g ~omega) then incr failures
      done;
      let rate = float_of_int !failures /. float_of_int trials in
      let bound = Coding.failure_bound ~n:4 ~f:1 ~rho ~m in
      let sigma = sqrt (Float.max 1e-9 (bound *. (1.0 -. bound)) /. float_of_int trials) in
      Printf.printf "%-6d %-14.5f %-14.5f %s\n" m bound rate
        (if rate <= bound +. (3.0 *. sigma) +. 0.02 then "ok" else "** ABOVE BOUND **"))
    [ 2; 3; 4; 5; 6; 8; 10; 12 ];
  Printf.printf
    "\n(The measured failure rate always sits below the Theorem-1 bound - a\n\
     union bound, loose by design - and vanishes quickly with m; NAB verifies\n\
     matrices and retries, so a bad draw only costs a regeneration attempt.)\n"

(* ------------------------------------------------------------------ *)
(* E5 - Theorems 2 & 3: bounds across network families + rho ablation  *)
(* ------------------------------------------------------------------ *)

let e5_families =
  [
    ("K4 cap 2", Gen.complete ~n:4 ~cap:2, 1);
    ("K4 cap 8", Gen.complete ~n:4 ~cap:8, 1);
    ("K7 cap 1", Gen.complete ~n:7 ~cap:1, 1);
    ("K7 cap 1, f=2", Gen.complete ~n:7 ~cap:1, 2);
    ("chordal ring 7", Gen.ring_with_chords ~n:7 ~cap:2 ~chord_cap:1, 1);
    ("dumbbell thin", Gen.dumbbell ~clique:3 ~clique_cap:4 ~bridge_cap:1, 1);
    ("dumbbell fat", Gen.dumbbell ~clique:3 ~clique_cap:4 ~bridge_cap:4, 1);
    ("star-mesh fat uplink", Gen.star_mesh ~n:6 ~spoke_cap:8 ~mesh_cap:1, 1);
    ("twin-cliques (1/3 rgm)", Gen.twin_cliques ~half:2 ~spoke_cap:8 ~intra_cap:8 ~cross_cap:1, 1);
    ("hypercube Q3 cap 2", Gen.hypercube ~dims:3 ~cap:2, 1);
    ("torus 3x4 cap 2", Gen.torus ~rows:3 ~cols:4 ~cap:2, 1);
    ("random n=6 seed 1", Gen.random_bb_feasible ~n:6 ~f:1 ~p:0.7 ~min_cap:1 ~max_cap:5 ~seed:1, 1);
    ("random n=6 seed 2", Gen.random_bb_feasible ~n:6 ~f:1 ~p:0.7 ~min_cap:1 ~max_cap:5 ~seed:2, 1);
    ("random n=6 seed 3", Gen.random_bb_feasible ~n:6 ~f:1 ~p:0.7 ~min_cap:1 ~max_cap:5 ~seed:3, 1);
  ]

let e5 () =
  section "e5" "Theorems 2 & 3 - throughput guarantee vs capacity upper bound";
  Printf.printf "%-22s %2s %2s %7s %5s %10s %9s %7s %s\n" "network" "n" "f" "gamma*"
    "rho*" "T_NAB(lb)" "C_BB(ub)" "ratio" "Thm-3 floor";
  hr 92;
  (* One task per family; rows come back (and print) in family order. *)
  Nab_util.Pool.map
    (fun (name, g, f) -> (name, g, f, Params.stars g ~source:1 ~f))
    e5_families
  |> List.iter
    (fun (name, g, f, s) ->
      let floor = if s.Params.half_capacity_condition then 0.5 else 1.0 /. 3.0 in
      Printf.printf "%-22s %2d %2d %7d %5d %10.2f %9.2f %6.2f%% %5.0f%% %s\n" name
        (Digraph.num_vertices g) f s.Params.gamma_star s.Params.rho_star
        s.Params.throughput_lb s.Params.capacity_ub
        (100.0 *. s.Params.ratio) (100.0 *. floor)
        (if s.Params.ratio >= floor -. 1e-9 then "ok" else "** BELOW FLOOR **"));
  (* rho ablation: the paper picks rho_k = U_k/2 to minimise equality-check
     time; any smaller rho lowers the combined rate. *)
  Printf.printf "\nrho ablation on K4 cap 2 (U_1 = 8, so rho may range 1..4):\n\n";
  Printf.printf "%-6s %-12s %-12s %-16s\n" "rho" "t_phase1" "t_eq-check" "rate gamma,rho";
  hr 48;
  let g = Gen.complete ~n:4 ~cap:2 in
  let gamma = float_of_int (Params.gamma_star g ~source:1 ~f:1) in
  List.iter
    (fun rho ->
      let rho_f = float_of_int rho in
      let l = 1.0 in
      Printf.printf "%-6d %-12.3f %-12.3f %-16.3f%s\n" rho (l /. gamma) (l /. rho_f)
        (gamma *. rho_f /. (gamma +. rho_f))
        (if rho = 4 then "   <- rho = U/2 maximises the rate" else ""))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E6 - measured end-to-end throughput vs the analytic bounds          *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "e6" "Measured NAB throughput vs eq.-6 lower bound and Thm-2 upper bound";
  Printf.printf "%-22s %-6s %-10s %-10s %-9s %-9s %s\n" "network" "L" "measured"
    "T_NAB(lb)" "frac-lb" "C_BB(ub)" "sound";
  hr 78;
  let networks =
    [
      ("K4 cap 2", Gen.complete ~n:4 ~cap:2);
      ("chordal ring 7", Gen.ring_with_chords ~n:7 ~cap:2 ~chord_cap:1);
      ("dumbbell fat", Gen.dumbbell ~clique:3 ~clique_cap:4 ~bridge_cap:4);
    ]
  in
  List.iter
    (fun (name, g) ->
      let s = Params.stars g ~source:1 ~f:1 in
      List.iter
        (fun l ->
          let config = Nab.config ~f:1 ~l_bits:l ~m:16 () in
          let report =
            nab_run ~ex:"e6" ~g ~config ~adversary:Adversary.dormant
              ~inputs:(inputs_for ~l ~seed:42) ~q:3 ()
          in
          let t = report.Nab.throughput_pipelined in
          Printf.printf "%-22s %-6d %-10.3f %-10.3f %8.1f%% %-9.2f %s\n" name l t
            s.Params.throughput_lb
            (100.0 *. t /. s.Params.throughput_lb)
            s.Params.capacity_ub
            (if t <= s.Params.capacity_ub +. 1e-9 then "ok" else "** EXCEEDS CAP **"))
        [ 512; 2048; 8192; 32768 ])
    networks;
  Printf.printf
    "\n(measured -> bound as L grows: the flag-broadcast overhead is O(n^a)\n\
     and amortises; measured never exceeds the Theorem-2 capacity ceiling.)\n"

(* ------------------------------------------------------------------ *)
(* E7 - dispute-control amortisation                                   *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "e7" "Dispute control amortisation: cost/instance vs Q (<= f(f+1) DCs)";
  let g = Gen.ring_with_chords ~n:7 ~cap:2 ~chord_cap:2 in
  let l = 2048 in
  let config = Nab.config ~f:1 ~l_bits:l ~m:16 () in
  let clean =
    nab_run ~ex:"e7" ~g ~config ~adversary:Adversary.none
      ~inputs:(inputs_for ~l ~seed:5) ~q:2 ()
  in
  let clean_rate = clean.Nab.throughput_pipelined in
  Printf.printf "adversary: ec-liar on the chordal 7-ring; fault-free rate %.3f\n\n"
    clean_rate;
  Printf.printf "%-6s %-4s %-14s %-12s %-10s\n" "Q" "DCs" "time/instance" "throughput"
    "% of clean";
  hr 52;
  List.iter
    (fun q ->
      let report =
        nab_run ~ex:"e7" ~g ~config ~adversary:Adversary.ec_liar
          ~inputs:(inputs_for ~l ~seed:5) ~q ()
      in
      Printf.printf "%-6d %-4d %-14.1f %-12.3f %7.1f%%\n" q report.Nab.dc_count
        (report.Nab.total_pipelined /. float_of_int q)
        report.Nab.throughput_pipelined
        (100.0 *. report.Nab.throughput_pipelined /. clean_rate))
    [ 1; 2; 4; 8; 16; 32; 64; 128 ];
  Printf.printf
    "\n(each DC is expensive - O(L n^b) bits - but fires at most f(f+1) = %d\n\
     times, so the per-instance cost converges to the fault-free rate.)\n"
    (config.Nab.f * (config.Nab.f + 1))

(* ------------------------------------------------------------------ *)
(* E8 - the introduction's claim: capacity-oblivious BB can be          *)
(*      arbitrarily worse than NAB                                      *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "e8" "Capacity-oblivious gap: K4 with one thin link, widening capacity C";
  let l = 1024 in
  Printf.printf
    "L = %d, f = 1; all links capacity C except the single link 2<->3 at 1.\n\
     A capacity-oblivious protocol (plain EIG on the L-bit value) pushes L-bit\n\
     relays over every link including the thin one; NAB's min-cut tree packing\n\
     routes around it.\n\n"
    l;
  Printf.printf "%-6s %-12s %-12s %-12s %-8s\n" "C" "NAB thpt" "oblivious" "NAB bound"
    "gap";
  hr 52;
  let thin_k4 c =
    let g = Gen.complete ~n:4 ~cap:c in
    let g = Digraph.remove_pair g 2 3 in
    Digraph.add_edge (Digraph.add_edge g ~src:2 ~dst:3 ~cap:1) ~src:3 ~dst:2 ~cap:1
  in
  List.iter
    (fun c ->
      let g = thin_k4 c in
      let s = Params.stars g ~source:1 ~f:1 in
      let config = Nab.config ~f:1 ~l_bits:l ~m:16 () in
      let nab =
        nab_run ~ex:"e8" ~g ~config ~adversary:Adversary.dormant
          ~inputs:(inputs_for ~l ~seed:9) ~q:2 ()
      in
      (* The oblivious baseline: plain EIG of the L-bit value. *)
      let sim = Nab_net.Sim.create g ~bits:Nab_net.Packet.bits in
      let routing = Nab_classic.Routing.build g ~f:1 in
      let data =
        Bitvec.to_symbols (Bitvec.pad_to (inputs_for ~l ~seed:9 1) l) ~sym_bits:8
      in
      let _ =
        Nab_classic.Oblivious.broadcast ~net:(Nab_net.Sim.transport sim) ~routing ~f:1 ~source:1 ~value_bits:l ~data
          ~faulty:Vset.empty ()
      in
      let obl = float_of_int l /. (Nab_net.Sim.timing sim).Nab_net.Sim.pipelined in
      Printf.printf "%-6d %-12.3f %-12.4f %-12.2f %6.1fx\n" c
        nab.Nab.throughput_pipelined obl s.Params.throughput_lb
        (nab.Nab.throughput_pipelined /. obl))
    [ 1; 2; 4; 8; 16; 32 ];
  Printf.printf
    "\n(the oblivious protocol is pinned at ~1 bit/unit by the thin link it\n\
     insists on using; NAB's throughput scales linearly with C, so the gap\n\
     grows without bound - the introduction's claim.)\n"

(* ------------------------------------------------------------------ *)
(* E9 - ablation: tree-packing Phase 1 vs random linear network coding *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "e9"
    "Ablation: Phase-1 via Edmonds tree packing vs RLNC (Ho et al. [8])";
  Printf.printf
    "Both achieve the min-cut rate gamma; the tree packing is deterministic\n\
     and header-free (what dispute control replays), RLNC is purely local\n\
     but pays a gamma*m-bit coefficient header per packet and finishes\n\
     probabilistically.\n\n";
  Printf.printf "%-12s %-6s %-10s %-10s %-8s %-12s %s\n" "network" "gamma" "tree-time"
    "rlnc-time" "rounds" "rlnc-header" "both deliver";
  hr 72;
  List.iter
    (fun (name, g) ->
      let gamma = Params.gamma_k g ~source:1 in
      let m = 8 in
      let l = gamma * m * 16 in
      let value = Bitvec.random l (Random.State.make [| 7 |]) in
      (* tree packing *)
      let sim_tree = Nab_net.Sim.create g ~bits:Nab_net.Packet.bits in
      let trees = Arborescence.pack g ~root:1 ~k:gamma in
      let received =
        Phase1.run ~net:(Nab_net.Sim.transport sim_tree) ~phase:"p1" ~trees ~source:1 ~value
          ~faulty:Vset.empty ()
      in
      let sizes = Phase1.slice_sizes ~value_bits:l ~trees:gamma in
      let tree_ok =
        List.for_all
          (fun v ->
            v = 1 || Bitvec.equal value (Phase1.assemble ~slice_sizes:sizes (received v)))
          (Digraph.vertices g)
      in
      (* RLNC *)
      let sim_rlnc = Nab_net.Sim.create g ~bits:Nab_net.Packet.bits in
      let r = Rlnc.broadcast ~net:(Nab_net.Sim.transport sim_rlnc) ~phase:"rlnc" ~source:1 ~value ~gamma ~m ~seed:3 () in
      let rlnc_ok =
        r.Rlnc.all_decoded
        && List.for_all
             (fun (_, d) -> match d with Some d -> Bitvec.equal d value | None -> false)
             r.Rlnc.decoded
      in
      Printf.printf "%-12s %-6d %-10.0f %-10.0f %-8d %-12d %b\n" name gamma
        ((Nab_net.Sim.timing sim_tree).Nab_net.Sim.wall) r.Rlnc.wall_time r.Rlnc.rounds r.Rlnc.header_bits
        (tree_ok && rlnc_ok))
    [
      ("K4 cap 2", Gen.complete ~n:4 ~cap:2);
      ("fig2", Gen.figure2);
      ("chords7", Gen.ring_with_chords ~n:7 ~cap:2 ~chord_cap:1);
      ("dumbbell", Gen.dumbbell ~clique:3 ~clique_cap:4 ~bridge_cap:2);
      ("twin-cliques", Gen.twin_cliques ~half:2 ~spoke_cap:8 ~intra_cap:8 ~cross_cap:1);
    ];
  Printf.printf
    "\n(NAB uses the tree packing because dispute control needs a\n\
     deterministic per-node schedule to replay; RLNC corroborates that the\n\
     gamma rate is achievable with purely local coding, as [8,13] prove.)\n"

(* ------------------------------------------------------------------ *)
(* E10 - scalability of the analytical machinery and one NAB instance  *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "e10" "Scalability with n (complete graphs, cap 1, f = 1)";
  Printf.printf "%-4s %-12s %-12s %-14s %-14s %-12s\n" "n" "gamma*(ms)" "rho*(ms)"
    "plan(ms)" "instance(ms)" "gamma*=smpl";
  hr 72;
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, 1000.0 *. (Unix.gettimeofday () -. t0))
  in
  List.iter
    (fun n ->
      let g = Gen.complete ~n ~cap:1 in
      let exact, t_gamma = time (fun () -> Params.gamma_star g ~source:1 ~f:1) in
      let _, t_rho = time (fun () -> Params.rho_star g ~f:1) in
      let sampled, _ =
        time (fun () -> Params.gamma_star_upper g ~source:1 ~f:1 ~samples:16 ~seed:3)
      in
      let (_ : Arborescence.tree list), t_plan =
        time (fun () ->
            Arborescence.pack g ~root:1 ~k:(Params.gamma_k g ~source:1))
      in
      let config = Nab.config ~f:1 ~l_bits:256 ~m:8 () in
      let _, t_inst =
        time (fun () ->
            nab_run ~ex:"e10" ~g ~config ~adversary:Adversary.none
              ~inputs:(inputs_for ~l:256 ~seed:1) ~q:1 ())
      in
      Printf.printf "%-4d %-12.1f %-12.1f %-14.1f %-14.1f %b\n" n t_gamma t_rho t_plan
        t_inst (sampled = exact))
    [ 4; 5; 6; 7; 8 ];
  (* The sampled bound scales to networks where exact Gamma enumeration is
     out of reach. One task per n; each task's gamma*_upper again fans out
     internally, and the nested maps share the pool. *)
  Printf.printf "\nsampled gamma' upper bound on larger networks (16 samples/fault set):\n\n";
  Printf.printf "%-4s %-10s %-10s\n" "n" "gamma_1" "gamma'<=";
  hr 26;
  Nab_util.Pool.map
    (fun n ->
      let g = Gen.complete ~n ~cap:1 in
      let sampled = Params.gamma_star_upper g ~source:1 ~f:1 ~samples:16 ~seed:3 in
      (n, Params.gamma_k g ~source:1, sampled))
    [ 10; 12; 14; 16 ]
  |> List.iter (fun (n, gamma1, sampled) ->
         Printf.printf "%-4d %-10d %-10d\n" n gamma1 sampled)

(* ------------------------------------------------------------------ *)
(* E11 - price of fault tolerance: bounds and measured rate vs f       *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "e11" "Price of fault tolerance: K10 (cap 1) under f = 0, 1, 2, 3";
  let g = Gen.complete ~n:10 ~cap:1 in
  let l = 2048 in
  Printf.printf "n = 10 complete, unit capacities, L = %d; dormant adversary\n\n" l;
  Printf.printf "%-4s %-8s %-7s %-11s %-10s %-10s %-12s\n" "f" "gamma*~" "rho*"
    "T_NAB(lb)" "C_BB(ub)" "measured" "flag rounds";
  hr 64;
  (* One task per fault budget; every seed below is fixed and per-task state
     (input tables, simulators) is task-local, so the rows are identical at
     any job count and print in f order. *)
  Nab_util.Pool.map
    (fun f ->
      (* Exact Gamma enumeration is exponential; use the sampled bound for
         the table (exact for f <= 1 on this graph) and exact rho*. *)
      let gamma =
        if f <= 1 then Params.gamma_star g ~source:1 ~f
        else Params.gamma_star_upper g ~source:1 ~f ~samples:12 ~seed:5
      in
      let rho = Params.rho_star g ~f in
      let t_lb =
        float_of_int (gamma * rho) /. float_of_int (gamma + rho)
      in
      let c_ub = Float.min (float_of_int gamma) (2.0 *. float_of_int rho) in
      let config = Nab.config ~f ~l_bits:l ~m:16 () in
      let report =
        Nab.run ~g ~config ~adversary:Adversary.dormant ~inputs:(inputs_for ~l ~seed:4)
          ~q:2 ()
      in
      (f, gamma, rho, t_lb, c_ub, report.Nab.throughput_pipelined))
    [ 0; 1; 2; 3 ]
  |> List.iter (fun (f, gamma, rho, t_lb, c_ub, measured) ->
         Printf.printf "%-4d %-8d %-7d %-11.2f %-10.2f %-10.3f %-12d\n" f gamma rho
           t_lb c_ub measured (f + 1));
  Printf.printf
    "\n(gamma'/rho' shrink by the worst-case dispute damage - one unit per\n\
     tolerated fault here. The measured drop at f >= 2 is the O(n^(f+1))\n\
     EIG flag-broadcast bits, which at this L are not yet amortised; they\n\
     vanish as L grows, leaving the T_NAB(lb) column as the limit - the\n\
     paper's large-L amortisation argument.)\n"

(* ------------------------------------------------------------------ *)
(* bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "micro" "substrate micro-benchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let open Nab_field in
  let f16 = Gf2p.create 16 in
  let st = Random.State.make [| 123 |] in
  let a = Gf2p.random_nonzero f16 st and b = Gf2p.random_nonzero f16 st in
  let mat = Nab_matrix.Matrix.random f16 20 20 st in
  let k8 = Gen.complete ~n:8 ~cap:3 in
  let chords12 = Gen.ring_with_chords ~n:12 ~cap:2 ~chord_cap:2 in
  let u12 = Ugraph.of_digraph chords12 in
  let k4 = Gen.complete ~n:4 ~cap:2 in
  let omega = Params.omega_k k4 ~total_n:4 ~f:1 ~disputes:[] in
  let rho = Params.rho_k k4 ~total_n:4 ~f:1 ~disputes:[] in
  let coding, _ = Coding.generate_correct k4 ~omega ~rho ~m:16 ~seed:1 () in
  let x = Array.init (rho * 4) (fun i -> (i * 257) land 0xffff) in
  let bv = Bitvec.random 4096 st in
  let nab_config = Nab.config ~f:1 ~l_bits:512 ~m:8 () in
  let nab_inputs = inputs_for ~l:512 ~seed:77 in
  let tests =
    [
      Test.make ~name:"gf2p16.mul" (Staged.stage (fun () -> Gf2p.mul f16 a b));
      Test.make ~name:"gf2p16.inv" (Staged.stage (fun () -> Gf2p.inv f16 a));
      Test.make ~name:"matrix.rank20" (Staged.stage (fun () -> Nab_matrix.Gauss.rank f16 mat));
      Test.make ~name:"dinic.k8" (Staged.stage (fun () -> Maxflow.max_flow k8 ~src:1 ~dst:8));
      Test.make ~name:"stoer-wagner.n12" (Staged.stage (fun () -> Stoer_wagner.min_cut_value u12));
      Test.make ~name:"arborescence.k8"
        (Staged.stage (fun () ->
             Arborescence.pack k8 ~root:1 ~k:(Maxflow.broadcast_mincut k8 ~src:1)));
      Test.make ~name:"ec-encode.4stripes"
        (Staged.stage (fun () -> Coding.encode coding ~edge:(1, 2) x));
      Test.make ~name:"bitvec.to_symbols"
        (Staged.stage (fun () -> Bitvec.to_symbols bv ~sym_bits:16));
      Test.make ~name:"nab.instance.k4"
        (Staged.stage (fun () ->
             Nab.run ~g:k4 ~config:nab_config ~adversary:Adversary.none
               ~inputs:nab_inputs ~q:1 ()));
      Test.make ~name:"params.stars.k4"
        (Staged.stage (fun () -> Params.stars k4 ~source:1 ~f:1));
    ]
  in
  let grouped = Test.make_grouped ~name:"nab" ~fmt:"%s.%s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) () in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  Printf.printf "%-28s %16s\n" "benchmark" "ns/run";
  hr 46;
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, ols) ->
         let ns =
           match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
         in
         Printf.printf "%-28s %16.1f\n" name ns)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
  ]

let usage =
  "usage: main.exe [--only ID] [--no-micro] [--jobs N] [--trace PATH] [--metrics PATH] \
   [--json PATH]"

(* One pass over argv: an unknown flag, or a flag missing its value, exits
   2 with the usage line, as the artifact benches do through harness.ml.
   The first occurrence of a valued flag wins. *)
let parse_args argv =
  let bad msg =
    Printf.eprintf "main: %s\n%s\n" msg usage;
    exit 2
  in
  let values = ref [] and no_micro = ref false in
  let rec go = function
    | [] -> ()
    | "--no-micro" :: rest ->
        no_micro := true;
        go rest
    | (("--only" | "--jobs" | "--trace" | "--metrics" | "--json") as flag) :: rest -> (
        match rest with
        | v :: rest when not (String.starts_with ~prefix:"--" v) ->
            if not (List.mem_assoc flag !values) then values := (flag, v) :: !values;
            go rest
        | _ -> bad (flag ^ " needs a value"))
    | arg :: _ -> bad ("unknown argument " ^ arg)
  in
  go (List.tl (Array.to_list argv));
  let value flag = List.assoc_opt flag !values in
  Option.iter
    (fun n ->
      match int_of_string_opt n with
      | Some j when j >= 1 -> Nab_util.Pool.set_jobs j
      | _ ->
          Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
          exit 1)
    (value "--jobs");
  (Option.map String.lowercase_ascii (value "--only"), !no_micro, value)

let () =
  let only, no_micro, file_of = parse_args Sys.argv in
  let chans = ref [] in
  let open_artifact path =
    let oc = open_out path in
    chans := oc :: !chans;
    oc
  in
  let sinks =
    List.filter_map
      (fun (flag, mk) -> Option.map (fun p -> mk (open_artifact p)) (file_of flag))
      [ ("--trace", Nab_obs.jsonl_sink); ("--metrics", Nab_obs.csv_sink) ]
  in
  if sinks <> [] then obs := Nab_obs.make sinks;
  Option.iter (fun p -> json_chan := Some (open_artifact p)) (file_of "--json");
  (match only with
  | Some id when id <> "micro" -> (
      match List.assoc_opt id experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (have: %s, micro)\n" id
            (String.concat ", " (List.map fst experiments));
          exit 1)
  | Some _ -> micro ()
  | None ->
      List.iter (fun (_, f) -> f ()) experiments;
      if not no_micro then micro ());
  Nab_obs.close !obs;
  List.iter close_out !chans
