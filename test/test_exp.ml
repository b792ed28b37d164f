(* The campaign subsystem: scenario codec, deterministic parallel runs,
   baseline diffing, and failing-case shrinking. *)

open Nab_graph
open Nab_core
open Nab_exp
module Json = Nab_obs.Json

(* ---- scenario codec ---- *)

let roundtrip s =
  match Scenario.of_json (Scenario.to_json s) with
  | Ok s' -> Alcotest.(check bool) ("roundtrip " ^ s.Scenario.id) true (s = s')
  | Error e -> Alcotest.failf "roundtrip %s: %s" s.Scenario.id e

let test_scenario_roundtrip () =
  let open Scenario in
  roundtrip (make (Complete { n = 4; cap = 2 }) ());
  roundtrip
    (make ~adversary:"chaos:99" ~disabled:[ "ec"; "phase1" ] ~f:2 ~l_bits:64 ~m:8
       ~seed:17 ~q:5 ~flag_backend:`Phase_king
       ~checks:[ "agreement"; "theorem3-ratio" ]
       (Random_feasible { n = 7; f = 2; p = 0.7; min_cap = 1; max_cap = 4; gseed = 3 })
       ());
  roundtrip
    (make ~min_gap:2.5 ~checks:[ "oblivious-gap" ]
       (Explicit
          {
            vertices = [ 1; 2; 3; 4 ];
            edges = [ (1, 2, 3); (2, 1, 3); (1, 3, 1); (3, 1, 1); (2, 4, 2); (4, 2, 2) ];
          })
       ());
  (* async backends: the fault spec must survive the codec, and the id must
     carry the spec label *)
  let spec =
    {
      Nab_net.Async_sim.latency = Nab_net.Async_sim.Uniform (0.5, 2.0);
      jitter = 0.25;
      reorder = 0.1;
      reorder_delay = 0.0;
      crash = [ (3, 120.0) ];
      partitions =
        [ { Nab_net.Async_sim.cut = [ (1, 2); (2, 1) ]; from_t = 10.0; until_t = 50.0 } ];
      seed = 42;
    }
  in
  let async_s =
    Scenario.make ~backend:(Scenario.Async spec) (Complete { n = 4; cap = 2 }) ()
  in
  roundtrip async_s;
  let sync_s = Scenario.make (Complete { n = 4; cap = 2 }) () in
  Alcotest.(check bool) "async id extends the sync id" true
    (String.length async_s.Scenario.id > String.length sync_s.Scenario.id
    && String.sub async_s.Scenario.id 0 (String.length sync_s.Scenario.id)
       = sync_s.Scenario.id);
  Alcotest.(check bool) "with_backend rederives the id" true
    (Scenario.with_backend (Scenario.Async spec) sync_s = async_s);
  List.iter roundtrip (Campaigns.quick ());
  (* corrupt JSON is rejected with a field name, not an exception *)
  match Scenario.of_string "{\"id\":\"x\"}" with
  | Ok _ -> Alcotest.fail "accepted a scenario with no topo"
  | Error _ -> ()

let test_scenario_ids_unique () =
  let ids = List.map (fun (s : Scenario.t) -> s.Scenario.id) (Campaigns.quick ()) in
  let sorted = List.sort_uniq compare ids in
  Alcotest.(check int) "quick campaign ids are unique" (List.length ids) (List.length sorted)

let test_scenario_inputs_match_cli () =
  (* Scenario.inputs must reproduce nab_cli's derivation exactly: the
     (seed, 0x1ca11) stream, one fresh value per distinct instance in
     first-call order. *)
  let s = Scenario.make ~seed:123 ~l_bits:64 (Scenario.Complete { n = 4; cap = 2 }) () in
  let rng = Random.State.make [| 123; 0x1ca11 |] in
  let expect0 = Bitvec.random 64 rng in
  let expect1 = Bitvec.random 64 rng in
  let inputs = Scenario.inputs s in
  Alcotest.(check bool) "instance 0" true (Bitvec.equal (inputs 0) expect0);
  Alcotest.(check bool) "instance 1" true (Bitvec.equal (inputs 1) expect1);
  Alcotest.(check bool) "instance 0 memoized" true (Bitvec.equal (inputs 0) expect0)

(* ---- runner determinism ---- *)

let jsonl rows =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Json.to_buffer buf (Runner.row_to_json r);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let test_jobs_independent () =
  let scenarios =
    Scenario.grid
      ~adversaries:[ "none"; "ec-liar"; "stealthy"; "chaos:7" ]
      ~qs:[ 2 ]
      [ Scenario.Complete { n = 4; cap = 2 }; Scenario.Chords { n = 6; cap = 2; chord_cap = 2 } ]
  in
  let one = Runner.run_campaign ~jobs:1 scenarios in
  let four = Runner.run_campaign ~jobs:4 scenarios in
  Alcotest.(check string) "jobs=1 and jobs=4 rows are byte-identical" (jsonl one) (jsonl four)

let test_quick_matches_baseline () =
  let ic = open_in "../CAMPAIGN_baseline.jsonl" in
  let committed =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let base =
    match Runner.read_jsonl "../CAMPAIGN_baseline.jsonl" with
    | Error e -> Alcotest.failf "baseline does not parse: %s" e
    | Ok base -> base
  in
  List.iter
    (fun jobs ->
      let rows = Runner.run_campaign ~jobs (Campaigns.quick ()) in
      Alcotest.(check string)
        (Printf.sprintf
           "quick campaign at jobs=%d reproduces the committed CAMPAIGN_baseline.jsonl \
            (regenerate with: dune exec bin/campaign.exe -- run --quick -o \
            CAMPAIGN_baseline.jsonl)"
           jobs)
        committed (jsonl rows);
      let d = Runner.diff_rows ~baseline:base ~current:rows in
      Alcotest.(check bool) "diff_rows agrees" true (Runner.diff_is_empty d))
    [ 1; 4 ]

(* The soak tier, pinned by digest: the rows of
   [campaign run --soak 40 --seed 11] (sync backend). Unlike the quick
   baseline it holds f = 2 rows up to n = 9, where Eig runs three rounds
   and C_H has up to six block rows. *)
let soak40_seed11_md5 = "56a9496ea08bd1adc48751d9bb60f1a6"

let test_soak_matches_digest () =
  let scenarios = Campaigns.soak ~trials:40 ~seed:11 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "soak 40 seed 11 rows at jobs=%d" jobs)
        soak40_seed11_md5
        (Digest.to_hex (Digest.string (jsonl (Runner.run_campaign ~jobs scenarios)))))
    [ 1; 4 ]

(* ---- plan cache ---- *)

let test_plan_cache_basics () =
  let cache : int Nab_util.Plan_cache.t =
    Nab_util.Plan_cache.create ~name:"test.basics" ()
  in
  let calls = ref 0 in
  let f () = incr calls; 42 in
  Alcotest.(check int) "computed" 42 (Nab_util.Plan_cache.find_or_compute cache ~key:"k" f);
  Alcotest.(check int) "served from cache" 42
    (Nab_util.Plan_cache.find_or_compute cache ~key:"k" f);
  Alcotest.(check int) "f ran once" 1 !calls;
  Alcotest.(check (option int)) "peek hit" (Some 42) (Nab_util.Plan_cache.find cache ~key:"k");
  Alcotest.(check (option int)) "peek miss" None (Nab_util.Plan_cache.find cache ~key:"absent");
  let s = Nab_util.Plan_cache.stats cache in
  Alcotest.(check int) "hits" 1 s.Nab_util.Plan_cache.hits;
  Alcotest.(check int) "misses" 1 s.Nab_util.Plan_cache.misses;
  Alcotest.(check int) "entries" 1 s.Nab_util.Plan_cache.entries;
  (* a failing builder leaves no entry behind and the next call retries *)
  (try
     ignore
       (Nab_util.Plan_cache.find_or_compute cache ~key:"boom" (fun () ->
            failwith "builder failed"));
     Alcotest.fail "exception swallowed"
   with Failure _ -> ());
  Alcotest.(check int) "retry recomputes" 7
    (Nab_util.Plan_cache.find_or_compute cache ~key:"boom" (fun () -> 7));
  Nab_util.Plan_cache.clear cache;
  let s = Nab_util.Plan_cache.stats cache in
  Alcotest.(check int) "cleared entries" 0 s.Nab_util.Plan_cache.entries;
  Alcotest.(check int) "cleared hits" 0 s.Nab_util.Plan_cache.hits;
  Alcotest.(check bool) "registered in global stats" true
    (List.mem_assoc "test.basics" (Nab_util.Plan_cache.global_stats ()))

let test_plan_cache_single_flight () =
  (* Many domains racing on the same missing key: the builder runs exactly
     once and everybody observes its value. *)
  let cache : int Nab_util.Plan_cache.t =
    Nab_util.Plan_cache.create ~name:"test.single-flight" ()
  in
  let builds = Atomic.make 0 in
  let started = Atomic.make 0 in
  let build () =
    Atomic.incr builds;
    (* keep the builder busy long enough for every racer to arrive *)
    let x = ref 0 in
    for i = 0 to 5_000_000 do
      x := !x + Sys.opaque_identity i
    done;
    ignore (Sys.opaque_identity !x);
    1234
  in
  let domains =
    List.init 6 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr started;
            while Atomic.get started < 6 do
              Domain.cpu_relax ()
            done;
            Nab_util.Plan_cache.find_or_compute cache ~key:"shared" build))
  in
  let results = List.map Domain.join domains in
  Alcotest.(check (list int)) "all observed the one value" [ 1234; 1234; 1234; 1234; 1234; 1234 ]
    results;
  Alcotest.(check int) "built exactly once" 1 (Atomic.get builds)

let warmup_independent_rows scenarios =
  (* Helper: rows for [scenarios] at the given cache state, as JSONL. *)
  jsonl (Runner.run_campaign ~jobs:1 scenarios)

let test_campaign_cold_vs_warm () =
  (* Campaign rows must be byte-identical whatever the plan caches hold:
     cold process, warm process, and across job counts. *)
  let scenarios =
    Scenario.grid
      ~adversaries:[ "none"; "ec-liar" ]
      ~qs:[ 2 ]
      [ Scenario.Complete { n = 4; cap = 2 }; Scenario.Chords { n = 6; cap = 2; chord_cap = 2 } ]
  in
  Nab_util.Plan_cache.clear_all ();
  Params.clear_gamma_cache ();
  let cold = warmup_independent_rows scenarios in
  let misses_after_cold =
    (List.assoc "nab.plan" (Nab_util.Plan_cache.global_stats ())).Nab_util.Plan_cache.misses
  in
  let warm = warmup_independent_rows scenarios in
  let misses_after_warm =
    (List.assoc "nab.plan" (Nab_util.Plan_cache.global_stats ())).Nab_util.Plan_cache.misses
  in
  Alcotest.(check string) "cold and warm rows byte-identical" cold warm;
  Alcotest.(check int) "warm run planned nothing new" misses_after_cold misses_after_warm;
  Alcotest.(check bool) "cold run did plan" true (misses_after_cold > 0);
  let warm4 = jsonl (Runner.run_campaign ~jobs:4 scenarios) in
  Alcotest.(check string) "warm jobs=4 rows byte-identical" cold warm4

let test_plan_cache_topology_churn () =
  (* Content-keyed invalidation under topology churn: the caches key on
     Digraph.fingerprint, so an edge or capacity change computes a fresh
     entry, while a revert to a structurally-equal graph — even one built
     through a different history — serves the old one. *)
  let cache : int Nab_util.Plan_cache.t =
    Nab_util.Plan_cache.create ~name:"test.churn" ()
  in
  let computes = ref 0 in
  let plan_for g =
    Nab_util.Plan_cache.find_or_compute cache ~key:(Digraph.fingerprint g)
      (fun () ->
        incr computes;
        !computes)
  in
  let g0 = Gen.ring ~n:6 ~cap:2 in
  let p0 = plan_for g0 in
  Alcotest.(check int) "cold graph computes" 1 !computes;
  Alcotest.(check int) "rebuilt equal graph hits" p0 (plan_for (Gen.ring ~n:6 ~cap:2));
  Alcotest.(check int) "no recompute on equal graph" 1 !computes;
  let g1 = Digraph.add_edge g0 ~src:1 ~dst:4 ~cap:1 in
  let p1 = plan_for g1 in
  Alcotest.(check bool) "edge churn invalidates" true (p1 <> p0);
  Alcotest.(check int) "edge churn recomputed" 2 !computes;
  let p2 = plan_for (Gen.ring ~n:6 ~cap:3) in
  Alcotest.(check bool) "capacity churn invalidates" true (p2 <> p0 && p2 <> p1);
  Alcotest.(check int) "capacity churn recomputed" 3 !computes;
  (* reverting the churn restores the original fingerprint: both earlier
     entries are still live and hit without recomputing *)
  Alcotest.(check int) "revert hits the original entry" p0
    (plan_for (Digraph.remove_edge g1 1 4));
  Alcotest.(check int) "churned entry also still hits" p1
    (plan_for (Digraph.add_edge (Gen.ring ~n:6 ~cap:2) ~src:1 ~dst:4 ~cap:1));
  Alcotest.(check int) "no recompute after reverts" 3 !computes;
  (* single-flight survives churn: many domains racing on the fingerprint
     of a graph nobody has planned yet build it exactly once *)
  let fresh = Digraph.add_edge g0 ~src:2 ~dst:5 ~cap:1 in
  let key = Digraph.fingerprint fresh in
  let builds = Atomic.make 0 in
  let build () =
    Atomic.incr builds;
    let x = ref 0 in
    for i = 0 to 2_000_000 do
      x := !x + Sys.opaque_identity i
    done;
    ignore (Sys.opaque_identity !x);
    999
  in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Nab_util.Plan_cache.find_or_compute cache ~key build))
  in
  let results = List.map Domain.join domains in
  Alcotest.(check (list int)) "racers agree on the churned plan" [ 999; 999; 999; 999 ]
    results;
  Alcotest.(check int) "churned key built once" 1 (Atomic.get builds);
  (* the real Nab.plan cache behaves the same way: repeat planning of an
     equal graph returns the identical shared plan object *)
  let config = Nab.config ~f:1 ~l_bits:64 () in
  let a = Nab.plan ~config ~total_n:6 ~disputes:[] (Gen.ring ~n:6 ~cap:2) in
  let b = Nab.plan ~config ~total_n:6 ~disputes:[] (Gen.ring ~n:6 ~cap:2) in
  Alcotest.(check bool) "Nab.plan shares the cached plan" true (a == b)

let test_diff_detects_changes () =
  let s1 = Scenario.make (Scenario.Complete { n = 4; cap = 2 }) () in
  let s2 = Scenario.make ~adversary:"ec-liar" (Scenario.Complete { n = 4; cap = 2 }) () in
  let rows = Runner.run_campaign ~jobs:1 [ s1; s2 ] in
  let d = Runner.diff_rows ~baseline:rows ~current:rows in
  Alcotest.(check bool) "self-diff empty" true (Runner.diff_is_empty d);
  (match rows with
  | [ r1; r2 ] ->
      let d =
        Runner.diff_rows ~baseline:[ r1; r2 ]
          ~current:[ { r1 with Runner.outcome = Runner.Violation }; r2 ]
      in
      Alcotest.(check bool) "outcome flip detected" false (Runner.diff_is_empty d);
      Alcotest.(check int) "exactly one change" 1 (List.length d.Runner.changed);
      let d = Runner.diff_rows ~baseline:[ r1 ] ~current:[ r1; r2 ] in
      Alcotest.(check (list string)) "added id" [ s2.Scenario.id ]
        d.Runner.added;
      let d = Runner.diff_rows ~baseline:[ r1; r2 ] ~current:[ r2 ] in
      Alcotest.(check (list string)) "missing id" [ s1.Scenario.id ] d.Runner.missing
  | _ -> Alcotest.fail "expected two rows");
  (* an infeasible scenario becomes an Error row, never an exception *)
  let bad =
    Scenario.make ~f:2
      (Scenario.Explicit { vertices = [ 1; 2; 3; 4 ]; edges = [ (1, 2, 1); (2, 1, 1) ] })
      ()
  in
  match (Runner.run_scenario bad).Runner.outcome with
  | Runner.Error _ -> ()
  | _ -> Alcotest.fail "infeasible scenario should be an Error row"

let test_unknown_check_is_violation () =
  let s = Scenario.make ~checks:[ "agreement"; "no-such-oracle" ] (Scenario.Complete { n = 4; cap = 2 }) () in
  let row = Runner.run_scenario s in
  Alcotest.(check bool) "violation" true (row.Runner.outcome = Runner.Violation);
  match List.find_opt (fun (c : Checker.outcome) -> c.Checker.name = "no-such-oracle") row.Runner.checks with
  | Some c -> Alcotest.(check bool) "failed" false c.Checker.ok
  | None -> Alcotest.fail "missing outcome for the unknown check"

(* ---- shrinking an injected bug ---- *)

(* A deliberately-wrong oracle: claims equality-check mismatches never
   happen. Any lying adversary violates it, which gives the shrinker a real
   violation to minimize without touching the protocol. *)
let () =
  Checker.register "test-no-mismatch" (fun ctx ->
      let m =
        List.exists
          (fun (i : Nab.instance_report) -> i.Nab.mismatch)
          ctx.Checker.report.Nab.instances
      in
      ((not m), if m then "observed an equality-check mismatch" else "no mismatches"))

let test_shrink_injected_bug () =
  let seeded =
    Scenario.make ~adversary:"ec-liar" ~f:2 ~q:3
      ~checks:("test-no-mismatch" :: Scenario.invariant_checks)
      (Scenario.Complete { n = 7; cap = 1 })
      ()
  in
  match Shrink.shrink seeded with
  | None -> Alcotest.fail "seeded bug scenario did not fail"
  | Some r ->
      Alcotest.(check string) "violation key" "check:test-no-mismatch" r.Shrink.key;
      let g = Scenario.graph r.Shrink.minimized in
      Alcotest.(check bool)
        (Printf.sprintf "minimized to n <= 6 (got %s, n=%d in %d runs)"
           r.Shrink.minimized.Scenario.id (Digraph.num_vertices g) r.Shrink.runs)
        true
        (Digraph.num_vertices g <= 6);
      Alcotest.(check int) "minimized f" 1 r.Shrink.minimized.Scenario.f;
      (* the emitted reproducer replays the same violation *)
      let row = Runner.run_scenario r.Shrink.minimized in
      Alcotest.(check (option string)) "replay reproduces the key"
        (Some r.Shrink.key) (Shrink.violation_key row);
      (* and survives the JSON round-trip the repro bundle relies on *)
      (match Scenario.of_json (Scenario.to_json r.Shrink.minimized) with
      | Ok s ->
          Alcotest.(check (option string)) "decoded reproducer replays too"
            (Some r.Shrink.key)
            (Shrink.violation_key (Runner.run_scenario s))
      | Error e -> Alcotest.failf "minimized scenario does not round-trip: %s" e)

let test_shrink_passes_is_none () =
  let s = Scenario.make (Scenario.Complete { n = 4; cap = 2 }) () in
  Alcotest.(check bool) "nothing to shrink" true (Shrink.shrink s = None)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_cli_command_shape () =
  let s = Scenario.make ~adversary:"ec-liar" ~seed:11 (Scenario.Complete { n = 4; cap = 2 }) () in
  (match Shrink.cli_command s ~graph_file:"net.graph" with
  | Some cmd ->
      Alcotest.(check bool) "mentions graph file" true (contains cmd "-g @net.graph");
      Alcotest.(check bool) "mentions seed" true (contains cmd "--seed 11");
      Alcotest.(check bool) "mentions adversary" true (contains cmd "-a ec-liar")
  | None -> Alcotest.fail "zoo scenario should be CLI-expressible");
  let hidden = Scenario.make ~adversary:"ec-liar" ~disabled:[ "ec" ] (Scenario.Complete { n = 4; cap = 2 }) () in
  Alcotest.(check bool) "disabled hooks are not CLI-expressible" true
    (Shrink.cli_command hidden ~graph_file:"net.graph" = None)

(* The backend flags printed in rerun commands select the backend they
   were printed from: Scenario.backend_of_flags inverts
   Scenario.fault_flags on every campaign backend and on hand-built async
   specs; partitioned specs have no flag form. *)
let test_flag_form_roundtrips () =
  let open Nab_net.Async_sim in
  let async spec =
    match validate_spec spec with
    | Ok spec -> Scenario.Async spec
    | Error e -> Alcotest.failf "bad test spec: %s" e
  in
  let hand_built =
    List.map async
      [
        no_faults;
        { no_faults with latency = Const 0.5; seed = 3 };
        { no_faults with latency = Uniform (0.25, 2.0); jitter = 0.1 };
        { no_faults with latency = Exp 1.5; reorder = 0.3 };
        { no_faults with reorder = 0.3; reorder_delay = 2.0; crash = [ (3, 5.0) ]; seed = 9 };
        { no_faults with reorder_delay = 4.0; crash = [ (2, 0.0); (4, 12.5) ] };
      ]
  in
  let backends = Scenario.Sync :: Scenario.Socket :: hand_built in
  let roundtrips (s : Scenario.t) =
    match Scenario.fault_flags s with
    | None -> Alcotest.failf "%s: no flag form" s.Scenario.id
    | Some fl ->
        if Scenario.backend_of_flags fl <> Ok s.Scenario.backend then
          Alcotest.failf "%s: flags do not select the scenario's backend" s.Scenario.id
  in
  List.iter
    (fun s -> List.iter (fun b -> roundtrips (Scenario.with_backend b s)) backends)
    (Campaigns.quick () @ Campaigns.soak ~trials:40 ~seed:11);
  let s = Scenario.with_backend (List.nth hand_built 4) (List.hd (Campaigns.quick ())) in
  (match Shrink.cli_command s ~graph_file:"net.graph" with
  | Some cmd ->
      Alcotest.(check bool) "printed flags" true
        (contains cmd " --backend async --reorder 0.3:2 --crash 3@5 --fault-seed 9")
  | None -> Alcotest.fail "async scenario should be CLI-expressible");
  let cut = { cut = [ (1, 2) ]; from_t = 0.0; until_t = 10.0 } in
  let partitioned = async { no_faults with partitions = [ cut ] } in
  let s = Scenario.with_backend partitioned (List.hd (Campaigns.quick ())) in
  Alcotest.(check bool) "partitioned spec has no flag form" true
    (Scenario.fault_flags s = None && Shrink.cli_command s ~graph_file:"net.graph" = None)

let () =
  Alcotest.run "exp"
    [
      ( "scenario",
        [
          Alcotest.test_case "json roundtrip" `Quick test_scenario_roundtrip;
          Alcotest.test_case "quick ids unique" `Quick test_scenario_ids_unique;
          Alcotest.test_case "inputs match nab_cli" `Quick test_scenario_inputs_match_cli;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "basics" `Quick test_plan_cache_basics;
          Alcotest.test_case "single flight across domains" `Quick
            test_plan_cache_single_flight;
          Alcotest.test_case "campaign cold vs warm" `Quick test_campaign_cold_vs_warm;
          Alcotest.test_case "topology churn" `Quick test_plan_cache_topology_churn;
        ] );
      ( "runner",
        [
          Alcotest.test_case "jobs-independent rows" `Quick test_jobs_independent;
          Alcotest.test_case "quick matches committed baseline" `Quick
            test_quick_matches_baseline;
          Alcotest.test_case "soak matches recorded digest" `Quick test_soak_matches_digest;
          Alcotest.test_case "diff detects changes" `Quick test_diff_detects_changes;
          Alcotest.test_case "unknown check is a violation" `Quick
            test_unknown_check_is_violation;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "injected bug shrinks to n<=6" `Quick test_shrink_injected_bug;
          Alcotest.test_case "passing scenario" `Quick test_shrink_passes_is_none;
          Alcotest.test_case "cli command" `Quick test_cli_command_shape;
          Alcotest.test_case "flag form round-trips" `Quick test_flag_form_roundtrips;
        ] );
    ]
