(* Degradation benchmark on the async fault-injecting backend
   (Nab_net.Async_sim): how fast the capacity-aware NAB schedule loses its
   edge over the capacity-oblivious baseline as the network stops honouring
   the capacity estimates the plan was built from, emitting a
   machine-readable BENCH_async.json so every PR has a trajectory to
   regress against.

   Usage (flags shared by every bench, see harness.ml):
     dune exec bench/async.exe                   # sweep + BENCH_async.json
     dune exec bench/async.exe -- --out F.json   # choose the artifact path
     dune exec bench/async.exe -- --quick        # smaller L and Q
     dune exec bench/async.exe -- --check        # correctness-only gate:
                                                 # async-zero == sync run
                                                 # reports, faulted replay
                                                 # determinism
     dune exec bench/async.exe -- --verify-artifact F.json
                                                 # fail unless the artifact
                                                 # carries every required
                                                 # (topology, severity) row

   The sweep runs NAB and the oblivious EIG baseline on the same async
   fabric, on capacity-heterogeneous topologies where NAB's plan leans
   hardest on the capacity estimates. Fault severity s scales a constant
   per-message latency in units of the topology's own mean synchronous
   round time d (measured, not assumed), so s = 1 means "every message is
   one round late" on any topology. All times are simulated, so unlike the
   kernel/sim benches the artifact is byte-reproducible on any machine;
   the CI gate is still presence-only, matching kernels.exe. *)

open Nab_graph
open Nab_core
open Nab_net

(* The library's simulator, named explicitly: a bare [Sim] would make
   dune link bench/sim.ml, which shares this executables stanza. *)
module Sim = Nab_net.Sim

let topologies =
  [
    (* spokes 8x wider than the cross links: the plan routes almost
       everything around the thin waist *)
    ("twin", Gen.twin_cliques ~half:3 ~spoke_cap:8 ~intra_cap:8 ~cross_cap:1);
    (* wide spokes over a thin mesh *)
    ("star", Gen.star_mesh ~n:6 ~spoke_cap:4 ~mesh_cap:1);
  ]

let severities = [ 0.0; 0.25; 0.5; 1.0; 2.0 ]

(* ------------------------------ running ------------------------------ *)

(* Mean synchronous round duration of a fault-free NAB run: the unit the
   latency severities are expressed in. *)
let mean_round_time (r : Nab.run_report) =
  let rounds =
    List.fold_left
      (fun a (i : Nab.instance_report) ->
        List.fold_left (fun a (p : Sim.phase_stat) -> a + p.Sim.rounds) a i.Nab.phase_stats)
      0 r.Nab.instances
  in
  if rounds = 0 then 1.0 else r.Nab.total_wall /. float_of_int rounds

(* The oblivious baseline on the same fabric: plain EIG of the L-bit value,
   wall time read off the transport afterwards. *)
let run_oblivious ~spec g ~l ~seed =
  let handle = Async_sim.create ~spec g in
  let net = Async_sim.transport handle in
  let routing = Nab_classic.Routing.build g ~f:1 in
  let sym_bits = if l mod 8 = 0 then 8 else 1 in
  let data =
    Bitvec.to_symbols (Bitvec.pad_to (Harness.inputs_for ~l ~seed 1) l) ~sym_bits
  in
  let decisions =
    Nab_classic.Oblivious.broadcast ~net ~routing ~f:1 ~source:1 ~value_bits:l ~data
      ~faulty:Vset.empty ()
  in
  let wall = (Transport.timing net).Transport.wall in
  let agree =
    match decisions with
    | [] -> false
    | (_, d0) :: rest -> List.for_all (fun (_, d) -> d = d0) rest
  in
  (float_of_int l /. wall, agree, Async_sim.fault_drops handle)

(* ------------------------------- sweep ------------------------------- *)

module Json = Nab_obs.Json

(* One (topology, severity) cell. Severe injections may break protocol
   invariants outright — that is data, not a crash: the cell records the
   exception and the sweep continues. *)
let cell ~quick (name, g) ~dbar severity =
  let l = if quick then 256 else 1024 in
  let q = if quick then 2 else 4 in
  let seed = 7 in
  let spec =
    { Async_sim.no_faults with Async_sim.latency = Async_sim.Const (severity *. dbar); seed = 1 }
  in
  let base =
    [
      ("name", Json.Str name);
      ("severity", Json.float severity);
      ("spec", Json.Str (Async_sim.spec_label spec));
    ]
  in
  match
    let r =
      Harness.run_nab ~transport:(Async_sim.factory ~spec ()) ~adv:"none" g ~l ~q ~seed
    in
    let obl, obl_agree, obl_drops = run_oblivious ~spec g ~l ~seed in
    (r, obl, obl_agree, obl_drops)
  with
  | r, obl, obl_agree, obl_drops ->
      let nab = r.Nab.throughput_wall in
      Json.Obj
        (base
        @ [
            ("nab_throughput", Json.float nab);
            ("obliv_throughput", Json.float obl);
            ("ratio", Json.float (nab /. obl));
            ("dc", Json.Int r.Nab.dc_count);
            ("nab_agree", Json.Bool (Nab.fault_free_agree r));
            ("obliv_agree", Json.Bool obl_agree);
            ("obliv_fault_drops", Json.Int obl_drops);
          ])
  | exception e -> Json.Obj (base @ [ ("error", Json.Str (Printexc.to_string e)) ])

let sweep ~quick ~(write : Harness.writer) =
  let results =
    List.concat_map
      (fun (name, g) ->
        let l = if quick then 256 else 1024 in
        let q = if quick then 2 else 4 in
        let sync =
          Harness.run_nab ~transport:Sim.default_factory ~adv:"none" g ~l ~q ~seed:7
        in
        let dbar = mean_round_time sync in
        Printf.printf "%s: sync wall %.1f, mean round %.3f\n%!" name sync.Nab.total_wall
          dbar;
        List.map (cell ~quick (name, g) ~dbar) severities)
      topologies
  in
  List.iter
    (fun row ->
      let get k p = Harness.get k p row in
      match (get "name" Json.get_string, get "severity" Json.get_float) with
      | Some name, Some s -> (
          match get "ratio" Json.get_float with
          | Some ratio ->
              Printf.printf "  %-5s s=%-4g nab/obliv=%.3f dc=%s agree=%s\n" name s ratio
                (match get "dc" Json.get_int with Some d -> string_of_int d | None -> "?")
                (match get "nab_agree" Json.get_bool with
                | Some b -> string_of_bool b
                | None -> "?")
          | None ->
              Printf.printf "  %-5s s=%-4g ERROR %s\n" name s
                (Option.value ~default:"?" (get "error" Json.get_string)))
      | _ -> ())
    results;
  write
    ~config:
      [
        ("quick", Json.Bool quick);
        ("l_bits", Json.Int (if quick then 256 else 1024));
        ("q", Json.Int (if quick then 2 else 4));
        ("fault_seed", Json.Int 1);
      ]
    ~results:(Json.List results) []

(* ------------------------------- check ------------------------------- *)

(* The differential gate: at zero faults the async backend must reproduce
   the synchronous run report byte for byte (decisions, disputes, timings),
   and a faulted run must replay deterministically from its spec. *)
let run_checks () =
  let check = Harness.check in
  let report_json r = Json.to_string (Report.run_to_json r) in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun adv ->
          let run transport = Harness.run_nab ~transport ~adv g ~l:256 ~q:2 ~seed:7 in
          check
            (Printf.sprintf "%s/%s async-zero == sync" name adv)
            (report_json (run Sim.default_factory)
            = report_json (run (Async_sim.factory ~spec:Async_sim.no_faults ()))))
        [ "none"; "ec-liar"; "chaos:7" ])
    (("complete", Gen.complete ~n:4 ~cap:2) :: topologies);
  let spec =
    {
      Async_sim.latency = Async_sim.Uniform (0.0, 30.0);
      jitter = 4.0;
      reorder = 0.15;
      reorder_delay = 0.0;
      crash = [];
      partitions = [];
      seed = 5;
    }
  in
  let faulted seed =
    let spec = { spec with Async_sim.seed } in
    Json.to_string
      (Report.run_to_json
         (Harness.run_nab
            ~transport:(Async_sim.factory ~spec ())
            ~adv:"none"
            (Gen.twin_cliques ~half:3 ~spoke_cap:8 ~intra_cap:8 ~cross_cap:1)
            ~l:256 ~q:2 ~seed:7))
  in
  check "faulted replay is deterministic" (faulted 5 = faulted 5);
  check "fault seed changes the run" (faulted 5 <> faulted 6)

(* -------------------------- artifact verify -------------------------- *)

(* Presence-only gate, mirroring kernels.exe: every (topology, severity)
   cell of the sweep grid must exist and carry either a ratio or a recorded
   error — no silent shrinkage of the grid. *)
let required_rows =
  List.concat_map
    (fun (name, _) ->
      List.map
        (fun s ->
          Harness.row (Printf.sprintf "%s severity=%g" name s) (fun row ->
              let get k p = Harness.get k p row in
              get "name" Json.get_string = Some name
              && get "severity" Json.get_float = Some s
              && (get "ratio" Json.get_float <> None || get "error" Json.get_string <> None)))
        severities)
    topologies

(* ------------------------------- main ------------------------------- *)

let () = Harness.run ~name:"async" ~verify:required_rows ~check:run_checks sweep
