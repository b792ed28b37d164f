(* The async transport backend: decision-equivalence with the synchronous
   simulator at zero faults (fixed scenarios + QCheck over sampled
   topologies), and deterministic replay under injected faults. *)

open Nab_core
open Nab_net
open Nab_exp
module Json = Nab_obs.Json

(* Report.run_to_json is lossless (decisions, disputes, timings, per-phase
   stats), so string equality of the encodings is a full differential. *)
let report_json r = Json.to_string (Report.run_to_json r)

let run_backend backend s =
  let s = Scenario.with_backend backend s in
  Nab.run
    ~transport:(Scenario.transport_factory s)
    ~g:(Scenario.graph s) ~config:(Scenario.config s)
    ~adversary:(Scenario.adversary_t s)
    ~inputs:(Scenario.inputs s) ~q:s.Scenario.q ()

let async_zero = Scenario.Async Async_sim.no_faults

(* ---- zero-fault differential ---- *)

let test_zero_fault_fixed () =
  let scenarios =
    Scenario.grid
      ~adversaries:[ "none"; "ec-liar"; "stealthy"; "chaos:7" ]
      ~qs:[ 2 ]
      [
        Scenario.Complete { n = 4; cap = 2 };
        Scenario.Chords { n = 6; cap = 2; chord_cap = 2 };
        Scenario.Twin_cliques { half = 3; spoke_cap = 8; intra_cap = 8; cross_cap = 1 };
      ]
  in
  List.iter
    (fun (s : Scenario.t) ->
      Alcotest.(check string)
        (Printf.sprintf "async no_faults reproduces sync run report (%s)" s.Scenario.id)
        (report_json (run_backend Scenario.Sync s))
        (report_json (run_backend async_zero s)))
    scenarios

let test_zero_fault_qcheck =
  let gen =
    QCheck.make
      ~print:(fun (n, gseed, adv) -> Printf.sprintf "n=%d gseed=%d adv=%s" n gseed adv)
      QCheck.Gen.(
        triple (int_range 4 8) (int_range 0 999)
          (oneofl [ "none"; "ec-liar"; "stealthy"; "garbage:3"; "chaos:11" ]))
  in
  QCheck.Test.make ~count:20 ~name:"async-zero == sync on sampled feasible topologies"
    gen
    (fun (n, gseed, adv) ->
      let s =
        Scenario.make ~adversary:adv ~l_bits:64 ~q:2
          (Scenario.Random_feasible
             { n; f = 1; p = 0.7; min_cap = 1; max_cap = 3; gseed })
          ()
      in
      report_json (run_backend Scenario.Sync s)
      = report_json (run_backend async_zero s))

(* ---- faulted runs: deterministic replay ---- *)

let faulted_spec =
  {
    Async_sim.latency = Async_sim.Uniform (0.0, 40.0);
    jitter = 5.0;
    reorder = 0.2;
    reorder_delay = 0.0;
    crash = [ (4, 900.0) ];
    partitions = [];
    seed = 42;
  }

let faulted_scenario () =
  Scenario.make ~adversary:"ec-liar" ~l_bits:128 ~q:3
    (Scenario.Chords { n = 6; cap = 2; chord_cap = 2 })
    ()

let test_faulted_replay_deterministic () =
  let s = faulted_scenario () in
  let a = report_json (run_backend (Scenario.Async faulted_spec) s) in
  let b = report_json (run_backend (Scenario.Async faulted_spec) s) in
  Alcotest.(check string) "same spec replays byte-identically" a b;
  let other =
    report_json (run_backend (Scenario.Async { faulted_spec with seed = 43 }) s)
  in
  Alcotest.(check bool) "the seed drives the fault draws" true (a <> other)

let test_faulted_regression () =
  (* A committed fingerprint of one faulted run: catches any accidental
     change to the event loop, the draw order, or the fault semantics.
     Regenerate the expected values by printing [summary] if the fault
     model changes deliberately. *)
  let r = run_backend (Scenario.Async faulted_spec) (faulted_scenario ()) in
  let summary =
    Printf.sprintf "dc=%d disputes=%d mismatches=%d wall=%.3f agree=%b" r.Nab.dc_count
      (List.length r.Nab.disputes)
      (List.length (List.filter (fun (i : Nab.instance_report) -> i.Nab.mismatch) r.Nab.instances))
      r.Nab.total_wall (Nab.fault_free_agree r)
  in
  Alcotest.(check string) "committed faulted-run fingerprint"
    "dc=0 disputes=0 mismatches=0 wall=610.315 agree=false" summary

(* ---- fault specs must name the graph ---- *)

let test_out_of_graph_faults () =
  let g = Nab_graph.Gen.complete ~n:4 ~cap:2 in
  let create spec = ignore (Async_sim.create ~spec g : Async_sim.t) in
  Alcotest.check_raises "crash of a vertex not in the graph"
    (Invalid_argument
       "Async_sim.create: crash entry 99@1.5 names no vertex of the graph")
    (fun () -> create { Async_sim.no_faults with crash = [ (2, 3.0); (99, 1.5) ] });
  let cut pairs =
    {
      Async_sim.no_faults with
      partitions = [ { Async_sim.cut = pairs; from_t = 0.0; until_t = 10.0 } ];
    }
  in
  Alcotest.check_raises "cut of a pair that is not a link"
    (Invalid_argument
       "Async_sim.create: partition cut 1>1 is not a link of the graph")
    (fun () -> create (cut [ (1, 2); (1, 1) ]));
  Alcotest.check_raises "cut towards a vertex not in the graph"
    (Invalid_argument
       "Async_sim.create: partition cut 3>7 is not a link of the graph")
    (fun () -> create (cut [ (3, 7) ]));
  create { (cut [ (1, 2); (4, 3) ]) with crash = [ (4, 0.0) ] }

let () =
  Alcotest.run "async"
    [
      ( "zero-fault differential",
        [
          Alcotest.test_case "fixed scenarios" `Quick test_zero_fault_fixed;
          QCheck_alcotest.to_alcotest test_zero_fault_qcheck;
        ] );
      ( "faulted replay",
        [
          Alcotest.test_case "deterministic replay" `Quick test_faulted_replay_deterministic;
          Alcotest.test_case "committed fingerprint" `Quick test_faulted_regression;
        ] );
      ( "fault spec validation",
        [
          Alcotest.test_case "out-of-graph faults are rejected" `Quick
            test_out_of_graph_faults;
        ] );
    ]
