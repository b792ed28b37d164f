(* Macro-benchmarks of the compiled simulator core (Nab_net.Sim) against
   the pre-compilation hashtable fabric, plus campaign-scale planning with
   a cold vs warm Plan_cache, emitting a machine-readable BENCH_sim.json so
   every PR has a perf trajectory to regress against.

   Usage (flags shared by every bench, see harness.ml):
     dune exec bench/sim.exe                   # bench + BENCH_sim.json
     dune exec bench/sim.exe -- --out F.json   # choose the artifact path
     dune exec bench/sim.exe -- --quick        # shorter timing windows
     dune exec bench/sim.exe -- --check        # correctness-only smoke
                                               # (differential vs the
                                               # reference fabric, no timing)

   [Ref_sim] (test/ref_sim) is the pre-compilation simulator, kept
   verbatim (per-round hashtables, per-receiver sort, unconditional event
   retention), so the reported speedups measure exactly what the compiled
   core bought.
   Timings are wall-clock and machine-dependent; the JSON is a trajectory
   artifact, not a test — `--check` is the CI gate and asserts correctness
   only. *)

open Nab_graph
open Nab_net

type row = {
  name : string;
  nodes : int;
  edges : int;
  rounds : int; (* rounds per timed episode *)
  ns : float; (* compiled core, ns per round *)
  ref_ns : float; (* reference fabric, ns per round *)
}

let speedup r = if r.ns > 0.0 then r.ref_ns /. r.ns else nan

(* ---------------------------- workloads ----------------------------

   One episode = create a simulator and run [rounds] rounds in which every
   node sends one message down each of its out-links — the all-links-busy
   shape of Phase 1 / the equality check. Creation is inside the episode,
   so the compile cost of the flat core is charged to it. *)

let bits m = 1 + (m land 63)

let episode_rounds = 64

let saturating_outbox g =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun v ->
      Hashtbl.replace tbl v
        (List.map (fun (dst, _) -> (dst, (v * 31) + dst)) (Digraph.out_edges g v)))
    (Digraph.vertices g);
  fun v -> try Hashtbl.find tbl v with Not_found -> []

let bench_loop ~min_time ~name ?(delays = fun _ -> 0) g =
  let outbox = saturating_outbox g in
  let run_new () =
    let sim = Sim.create ~delays g ~bits in
    for _ = 1 to episode_rounds do
      let (_ : int -> (int * int) list) = Sim.round sim ~phase:"bench" outbox in
      ()
    done;
    (Sim.timing sim).Sim.wall
  in
  let run_ref () =
    let sim = Ref_sim.create ~delays g ~bits in
    for _ = 1 to episode_rounds do
      let (_ : int -> (int * int) list) = Ref_sim.round sim ~phase:"bench" outbox in
      ()
    done;
    Ref_sim.elapsed sim
  in
  let per_round t = 1e9 *. t /. float_of_int episode_rounds in
  let ns = per_round (Harness.time_per_op ~min_time run_new) in
  let ref_ns = per_round (Harness.time_per_op ~min_time run_ref) in
  {
    name;
    nodes = Digraph.num_vertices g;
    edges = Digraph.num_edges g;
    rounds = episode_rounds;
    ns;
    ref_ns;
  }

let loop_workloads () =
  [
    ("mesh-n8", Gen.complete ~n:8 ~cap:2, None);
    ("mesh-n16", Gen.complete ~n:16 ~cap:2, None);
    ("mesh-n32", Gen.complete ~n:32 ~cap:2, None);
    ( "mesh-n16-delayed",
      Gen.complete ~n:16 ~cap:2,
      Some (fun (s, d) -> (s + d) mod 3) );
  ]

(* -------------------------- campaign timing -------------------------- *)

let cold_caches () =
  Nab_util.Plan_cache.clear_all ();
  Nab_core.Params.clear_gamma_cache ()

type campaign_result = {
  c_name : string;
  c_scenarios : int;
  c_cold_s : float;
  c_warm_s : float;
  c_identical : bool;
  c_warm_witness : bool;
      (* warm rerun scored no misses in the capacity witness caches, and
         scored hits whenever the cold run touched them — guards the
         regression where a warm [Capacity.verify] short-circuited
         without ever touching them *)
}

(* The capacity witness caches must be warm-path hits, not bystanders: a
   warm rerun of a campaign that ran the capacity-witness oracle cold must
   score only hits in them. A campaign that never touched them cold (the
   scaled tier's dense graphs are out of reach of the exact witness
   enumeration) is vacuously fine — but a warm miss is always a bug. *)
let witness_caches = [ "capacity.gamma_witness"; "capacity.rho_witness" ]

let witness_stats () =
  List.filter_map
    (fun (name, s) -> if List.mem name witness_caches then Some (name, s) else None)
    (Nab_util.Plan_cache.global_stats ())

(* Run [scenarios] cold (all plan caches cleared) then warm, asserting the
   rows are byte-identical — the speedup is only meaningful if temperature
   changed nothing but wall-clock. *)
let time_campaign ~name scenarios =
  let run () =
    let t0 = Unix.gettimeofday () in
    let rows = Nab_exp.Runner.run_campaign ~jobs:1 scenarios in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, rows)
  in
  cold_caches ();
  let base = witness_stats () in
  let cold_s, cold_rows = run () in
  let before = witness_stats () in
  let warm_s, warm_rows = run () in
  let warm_witness =
    List.for_all2
      (fun ((wname, (b : Nab_util.Plan_cache.stats)), (_, (z : Nab_util.Plan_cache.stats)))
           (_, (a : Nab_util.Plan_cache.stats)) ->
        let touched_cold =
          b.Nab_util.Plan_cache.hits + b.Nab_util.Plan_cache.misses
          > z.Nab_util.Plan_cache.hits + z.Nab_util.Plan_cache.misses
        in
        let hits = a.Nab_util.Plan_cache.hits - b.Nab_util.Plan_cache.hits in
        let misses = a.Nab_util.Plan_cache.misses - b.Nab_util.Plan_cache.misses in
        if misses = 0 && (hits > 0 || not touched_cold) then true
        else begin
          Printf.eprintf "%s campaign: warm run scored %d hits / %d misses in %s\n"
            name hits misses wname;
          false
        end)
      (List.combine before base)
      (witness_stats ())
  in
  let render r = Nab_obs.Json.to_string (Nab_exp.Runner.row_to_json r) in
  let identical =
    List.length cold_rows = List.length warm_rows
    && List.for_all2
         (fun c w ->
           let cs = render c and ws = render w in
           if cs = ws then true
           else begin
             Printf.eprintf "cold/warm row mismatch:\n  cold: %s\n  warm: %s\n" cs ws;
             false
           end)
         cold_rows warm_rows
  in
  {
    c_name = name;
    c_scenarios = List.length scenarios;
    c_cold_s = cold_s;
    c_warm_s = warm_s;
    c_identical = identical;
    c_warm_witness = warm_witness;
  }

(* The quick campaign runs on paper-scale graphs (n <= 8) where planning is
   a minority of the wall, so its cold/warm ratio understates the cache.
   The scaled tier uses the topologies campaigns actually choke on — tree
   packing and coding-matrix generation grow steeply with n — with several
   scenarios sharing each topology, which is exactly the shape the
   content-keyed cache exists for. *)
let scaled_scenarios ~quick =
  let mk n q =
    (* No capacity-witness here: psi_graphs enumerates dispute sets
       exactly and refuses complete graphs this dense, so the witness
       caches are legitimately untouched in this tier. *)
    Nab_exp.Scenario.make ~f:2 ~q ~l_bits:512
      (Nab_exp.Scenario.Complete { n; cap = 2 })
      ()
  in
  if quick then [ mk 10 2; mk 12 2 ]
  else [ mk 10 2; mk 10 3; mk 12 2; mk 12 3; mk 14 2; mk 14 3 ]

(* ------------------------------ checks ------------------------------

   Differential correctness of the compiled core against the reference
   fabric on random episodes (sparse ids, random edges, delayed links,
   sends to absent links), plus cold-vs-warm campaign row identity. Exits
   nonzero on the first mismatch. This (not the timings) is what CI runs. *)

let random_episode st =
  let n = 2 + Random.State.int st 5 in
  let spread = 1 + Random.State.int st 4 in
  let base = Random.State.int st 6 in
  let ids = Array.init n (fun i -> base + 1 + (i * spread)) in
  let edges = ref [] in
  Array.iter
    (fun s ->
      Array.iter
        (fun d ->
          if s <> d && Random.State.bool st then
            edges := (s, d, 1 + Random.State.int st 4) :: !edges)
        ids)
    ids;
  let dseed = Random.State.int st 98 in
  let nrounds = 1 + Random.State.int st 6 in
  let sends =
    List.init nrounds (fun _ ->
        List.init (Random.State.int st 13) (fun _ ->
            ( Random.State.int st n,
              Random.State.int st (n + 1),
              1 + Random.State.int st 200 )))
  in
  (ids, List.rev !edges, dseed, sends)

let run_episode (ids, edges, dseed, sends) =
  let g = Digraph.of_edges ~vertices:(Array.to_list ids) edges in
  let delays (s, d) = ((s * 5) + (d * 3) + dseed) mod 3 in
  let sim = Sim.create ~delays ~keep_events:true g ~bits in
  let rsim = Ref_sim.create ~delays g ~bits in
  let verts = Digraph.vertices g in
  let id_of i = if i >= Array.length ids then 999983 else ids.(i) in
  let ok = ref true in
  let check b = if not b then ok := false in
  List.iteri
    (fun r round_sends ->
      let phase = if r mod 2 = 0 then "even" else "odd" in
      let outbox v =
        List.filter_map
          (fun (si, di, m) -> if id_of si = v then Some (id_of di, m) else None)
          round_sends
      in
      let ib = Sim.round sim ~phase outbox in
      let rb = Ref_sim.round rsim ~phase outbox in
      List.iter (fun v -> check (ib v = rb v)) verts)
    sends;
  let late = Sim.drain sim ~phase:"drain" in
  let rlate = Ref_sim.drain rsim ~phase:"drain" in
  List.iter (fun v -> check (late v = rlate v)) verts;
  check (Sim.dropped sim = Ref_sim.dropped rsim);
  check (Sim.rounds_run sim = Ref_sim.rounds_run rsim);
  check (Sim.link_bits sim = Ref_sim.link_bits rsim);
  check (Sim.utilization sim = Ref_sim.utilization rsim);
  let tn = Sim.timing sim and tr = Ref_sim.timing rsim in
  check (tn.Sim.wall = tr.Ref_sim.wall);
  check (tn.Sim.pipelined = tr.Ref_sim.pipelined);
  check
    (List.map
       (fun (p : Sim.phase_stat) ->
         (p.Sim.phase, p.Sim.rounds, p.Sim.wall, p.Sim.bottleneck, p.Sim.bits_total, p.Sim.extra))
       tn.Sim.phases
    = List.map
        (fun (p : Ref_sim.phase_stat) ->
          ( p.Ref_sim.phase,
            p.Ref_sim.rounds,
            p.Ref_sim.wall,
            p.Ref_sim.bottleneck,
            p.Ref_sim.bits_total,
            p.Ref_sim.extra ))
        tr.Ref_sim.phases);
  check
    (List.map
       (fun (e : _ Sim.event) ->
         (e.Sim.round_no, e.Sim.ev_phase, e.Sim.src, e.Sim.dst, e.Sim.msg))
       (Sim.events sim)
    = List.map
        (fun (e : _ Ref_sim.event) ->
          (e.Ref_sim.round_no, e.Ref_sim.ev_phase, e.Ref_sim.src, e.Ref_sim.dst, e.Ref_sim.msg))
        (Ref_sim.events rsim));
  !ok

let run_checks () =
  let st = Random.State.make [| 0x51b3; 7 |] in
  for episode = 1 to 400 do
    Harness.check
      (Printf.sprintf "episode %d" episode)
      (run_episode (random_episode st))
  done;
  let c = time_campaign ~name:"quick" (Nab_exp.Campaigns.quick ()) in
  (* plan-cache temperature must not change campaign rows *)
  Harness.check "cold vs warm campaign rows identical" c.c_identical;
  (* warm reruns must hit the capacity witness caches *)
  Harness.check "warm campaign hit the capacity witness caches" c.c_warm_witness

(* ------------------------------- main ------------------------------- *)

let sweep ~quick ~(write : Harness.writer) =
  let min_time = if quick then 0.02 else 0.2 in
  let rows =
    List.map
      (fun (name, g, delays) -> bench_loop ~min_time ~name ?delays g)
      (loop_workloads ())
  in
  let campaigns =
    [
      time_campaign ~name:"quick" (Nab_exp.Campaigns.quick ());
      time_campaign ~name:"scaled" (scaled_scenarios ~quick);
    ]
  in
  Printf.printf "%-18s %6s %6s %14s %14s %9s\n" "benchmark" "nodes" "edges"
    "core ns/round" "ref ns/round" "speedup";
  Printf.printf "%s\n" (String.make 72 '-');
  List.iter
    (fun r ->
      Printf.printf "%-18s %6d %6d %14.1f %14.1f %8.2fx\n" r.name r.nodes r.edges
        r.ns r.ref_ns (speedup r))
    rows;
  print_newline ();
  List.iter
    (fun c ->
      Printf.printf
        "%s campaign (%d scenarios, jobs=1): cold %.2fs, warm %.2fs, %.2fx%s\n"
        c.c_name c.c_scenarios c.c_cold_s c.c_warm_s
        (if c.c_warm_s > 0.0 then c.c_cold_s /. c.c_warm_s else nan)
        ((if c.c_identical then "" else " [ROWS DIFFER!]")
        ^ if c.c_warm_witness then "" else " [WITNESS CACHES COLD!]"))
    campaigns;
  if not (List.for_all (fun c -> c.c_identical && c.c_warm_witness) campaigns) then
    exit 1;
  print_newline ();
  let open Nab_obs.Json in
  write
    ~config:[ ("min_time_s", float min_time); ("episode_rounds", Int episode_rounds) ]
    ~results:
      (List
         (List.map
            (fun r ->
              Obj
                [
                  ("name", Str r.name);
                  ("nodes", Int r.nodes);
                  ("edges", Int r.edges);
                  ("ns_per_round", float r.ns);
                  ("ref_ns_per_round", float r.ref_ns);
                  ("rounds_per_sec", float (1e9 /. r.ns));
                  ("speedup", float (speedup r));
                ])
            rows))
    [
      ( "campaigns",
        List
          (List.map
             (fun c ->
               Obj
                 [
                   ("name", Str c.c_name);
                   ("scenarios", Int c.c_scenarios);
                   ("jobs", Int 1);
                   ("cold_s", float c.c_cold_s);
                   ("warm_s", float c.c_warm_s);
                   ("speedup", float (c.c_cold_s /. c.c_warm_s));
                   ("rows_identical", Bool c.c_identical);
                   ("warm_witness_hits", Bool c.c_warm_witness);
                 ])
             campaigns) );
      ( "plan_caches",
        Obj
          (List.map
             (fun (name, (s : Nab_util.Plan_cache.stats)) ->
               ( name,
                 Obj
                   [
                     ("hits", Int s.Nab_util.Plan_cache.hits);
                     ("misses", Int s.Nab_util.Plan_cache.misses);
                     ("entries", Int s.Nab_util.Plan_cache.entries);
                   ] ))
             (Nab_util.Plan_cache.global_stats ())) );
    ]

let () = Harness.run ~name:"sim" ~wall_clock:true ~check:run_checks sweep
