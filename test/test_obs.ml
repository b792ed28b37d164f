(* The observability layer: JSON round-trips, the no-op sink's zero effect
   on protocol output, and the determinism contract for trace/metrics/JSON
   artifacts (byte-identical at any Pool job count, and stable against the
   committed golden trace). *)

open Nab_graph
open Nab_core
module J = Nab_obs.Json
module Pool = Nab_util.Pool

let k4 = Gen.complete ~n:4 ~cap:2

let input_fn ~l ~seed = Bitvec.random_stream l (Random.State.make [| seed |])

(* ---------- Json ---------- *)

let test_json_roundtrip () =
  let cases =
    [
      J.Null;
      J.Bool true;
      J.Bool false;
      J.Int 0;
      J.Int (-42);
      J.Int max_int;
      J.Float 0.1;
      J.Float 1e-9;
      J.Float (-1.5);
      J.Float 1234567.25;
      J.float infinity;
      J.float neg_infinity;
      J.float nan;
      J.Str "";
      J.Str "plain";
      J.Str "esc \" \\ \n \t \r chars";
      J.Str "ctrl \001\031 high \xc3\xa9";
      J.List [];
      J.List [ J.Int 1; J.Str "two"; J.Null ];
      J.Obj [];
      J.Obj [ ("a", J.Int 1); ("b", J.List [ J.Obj [ ("c", J.Bool false) ] ]) ];
    ]
  in
  List.iteri
    (fun i j ->
      let s = J.to_string j in
      match J.of_string s with
      | Ok j' ->
          Alcotest.(check string)
            (Printf.sprintf "case %d re-encodes identically" i)
            s (J.to_string j')
      | Error e -> Alcotest.failf "case %d (%s): parse error %s" i s e)
    cases;
  (* Floats that happen to be integral survive as numbers with a point. *)
  Alcotest.(check string) "integral float keeps point" "3.0" (J.to_string (J.Float 3.0));
  (* Strict parser: trailing garbage and bare tokens are rejected. *)
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ "{} x"; "[1,]"; "{\"a\":}"; "nul"; "'single'"; "" ]

let test_json_accessors () =
  let j =
    Result.get_ok (J.of_string {|{"i":7,"f":2.5,"s":"hi","b":true,"l":[1],"inf":"inf"}|})
  in
  Alcotest.(check (option int)) "int" (Some 7) (Option.bind (J.member "i" j) J.get_int);
  Alcotest.(check (option (float 0.0)))
    "float" (Some 2.5)
    (Option.bind (J.member "f" j) J.get_float);
  Alcotest.(check (option (float 0.0)))
    "int widens" (Some 7.0)
    (Option.bind (J.member "i" j) J.get_float);
  Alcotest.(check bool) "inf decodes" true
    (Option.bind (J.member "inf" j) J.get_float = Some infinity);
  Alcotest.(check (option string))
    "string" (Some "hi")
    (Option.bind (J.member "s" j) J.get_string);
  Alcotest.(check (option bool))
    "bool" (Some true)
    (Option.bind (J.member "b" j) J.get_bool);
  Alcotest.(check bool) "list" true
    (match Option.bind (J.member "l" j) J.get_list with Some [ J.Int 1 ] -> true | _ -> false);
  Alcotest.(check (option int)) "missing member" None
    (Option.bind (J.member "nope" j) J.get_int)

(* ---------- Bitvec hex ---------- *)

let test_bitvec_hex () =
  let rng = Random.State.make [| 5 |] in
  List.iter
    (fun bits ->
      let v = Bitvec.random bits rng in
      let v' = Bitvec.of_hex ~bits (Bitvec.to_hex v) in
      Alcotest.(check bool) (Printf.sprintf "round-trip %d bits" bits) true
        (Bitvec.equal v v'))
    [ 0; 1; 7; 8; 9; 64; 137; 1024 ];
  List.iter
    (fun (bits, s, why) ->
      match Bitvec.of_hex ~bits s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "of_hex ~bits:%d %S should reject (%s)" bits s why)
    [
      (8, "f", "odd digit count");
      (8, "f0f0", "too many digits");
      (8, "zz", "not hex");
      (4, "0f", "padding bits set");
      (-1, "", "negative length");
    ]

(* ---------- run_report JSON round-trip ---------- *)

let instance_equal (a : Nab.instance_report) (b : Nab.instance_report) =
  a.Nab.k = b.Nab.k && a.value_bits = b.value_bits && a.gamma_k = b.gamma_k
  && a.rho_k = b.rho_k
  && List.length a.decisions = List.length b.decisions
  && List.for_all2
       (fun (v1, d1) (v2, d2) -> v1 = v2 && Bitvec.equal d1 d2)
       a.decisions b.decisions
  && a.mismatch = b.mismatch && a.dc_run = b.dc_run
  && a.reduced_to_phase1 = b.reduced_to_phase1
  && a.coding_attempts = b.coding_attempts
  && a.wall_time = b.wall_time
  && a.pipelined_time = b.pipelined_time
  && a.phase_stats = b.phase_stats
  && a.utilization = b.utilization
  && a.new_disputes = b.new_disputes

let report_equal (a : Nab.run_report) (b : Nab.run_report) =
  a.Nab.config = b.Nab.config
  && a.adversary_name = b.adversary_name
  && Vset.equal a.faulty b.faulty
  && List.length a.instances = List.length b.instances
  && List.for_all2 instance_equal a.instances b.instances
  && a.dc_count = b.dc_count && a.disputes = b.disputes
  && Digraph.equal a.final_graph b.final_graph
  && a.total_wall = b.total_wall
  && a.total_pipelined = b.total_pipelined
  && a.throughput_wall = b.throughput_wall
  && a.throughput_pipelined = b.throughput_pipelined

(* An ec-liar run exercises every field: mismatches, a DC instance with new
   disputes, an evolved final graph and non-trivial utilization. *)
let sample_report () =
  let config = Nab.config ~f:1 ~l_bits:256 ~m:8 () in
  Nab.run ~g:k4 ~config ~adversary:Adversary.ec_liar
    ~inputs:(input_fn ~l:256 ~seed:17) ~q:3 ()

let test_report_json_roundtrip () =
  let r = sample_report () in
  let j = Report.run_to_json r in
  (match Report.run_of_json j with
  | Ok r' -> Alcotest.(check bool) "decode (run_to_json r) = r" true (report_equal r r')
  | Error e -> Alcotest.failf "run_of_json: %s" e);
  (* Through the actual wire format (string), as the CLI emits it. *)
  match J.of_string (J.to_string j) with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok j' -> (
      match Report.run_of_json j' with
      | Ok r' ->
          Alcotest.(check bool) "decode via text = r" true (report_equal r r')
      | Error e -> Alcotest.failf "run_of_json after reparse: %s" e)

let test_report_json_rejects_malformed () =
  let j = Report.run_to_json (sample_report ()) in
  let drop name = function
    | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> name) fields)
    | j -> j
  in
  (match Report.run_of_json (drop "instances" j) with
  | Ok _ -> Alcotest.fail "missing instances must not decode"
  | Error e -> Alcotest.(check bool) "error is descriptive" true (String.length e > 0));
  match Report.run_of_json (J.Str "nope") with
  | Ok _ -> Alcotest.fail "non-object must not decode"
  | Error _ -> ()

(* ---------- the no-op sink changes nothing ---------- *)

let test_null_ctx_identity () =
  let plain = sample_report () in
  (* A context over the no-op sink: enabled=false is only true for [null],
     so this exercises the full emit path into a sink that drops data. *)
  let ctx = Nab_obs.make [ Nab_obs.null_sink ] in
  let config = Nab.config ~f:1 ~l_bits:256 ~m:8 () in
  let observed =
    Nab.run ~obs:ctx ~g:k4 ~config ~adversary:Adversary.ec_liar
      ~inputs:(input_fn ~l:256 ~seed:17) ~q:3 ()
  in
  Nab_obs.close ctx;
  Alcotest.(check bool) "instrumented report = plain report" true
    (report_equal plain observed);
  let default_ctx =
    Nab.run ~obs:Nab_obs.null ~g:k4 ~config ~adversary:Adversary.ec_liar
      ~inputs:(input_fn ~l:256 ~seed:17) ~q:3 ()
  in
  Alcotest.(check bool) "explicit null ctx = plain report" true
    (report_equal plain default_ctx);
  Alcotest.(check int) "null ctx aggregates nothing" 0
    (List.length (Nab_obs.metrics Nab_obs.null))

(* ---------- artifact determinism: jobs=1 vs jobs=4, and the golden ---------- *)

(* The fixed-seed 2-instance run every artifact test shares; matches the
   committed golden_trace.jsonl (regenerate with
   `dune exec test/gen_golden.exe` after an intentional schema change). *)
let golden_artifacts () =
  let trace = Buffer.create 4096 and csv = Buffer.create 512 in
  let ctx =
    Nab_obs.make ~sample_messages:7
      [ Nab_obs.buffer_jsonl_sink trace; Nab_obs.buffer_csv_sink csv ]
  in
  let config = Nab.config ~f:1 ~l_bits:128 ~m:8 () in
  let report =
    Nab.run ~obs:ctx ~g:k4 ~config ~adversary:Adversary.ec_liar
      ~inputs:(input_fn ~l:128 ~seed:23) ~q:2 ()
  in
  Nab_obs.close ctx;
  (Buffer.contents trace, Buffer.contents csv, J.to_string (Report.run_to_json report))

let at_jobs j f =
  Pool.set_jobs j;
  Params.clear_gamma_cache ();
  f ()

let test_artifacts_jobs_independent () =
  let t1, c1, j1 = at_jobs 1 golden_artifacts in
  let t4, c4, j4 = at_jobs 4 golden_artifacts in
  Alcotest.(check string) "trace bytes jobs=1 vs 4" t1 t4;
  Alcotest.(check string) "metrics bytes jobs=1 vs 4" c1 c4;
  Alcotest.(check string) "json report jobs=1 vs 4" j1 j4

let test_trace_matches_golden () =
  let ic = open_in_bin "golden_trace.jsonl" in
  let n = in_channel_length ic in
  let golden = really_input_string ic n in
  close_in ic;
  List.iter
    (fun j ->
      let trace, _, _ = at_jobs j golden_artifacts in
      Alcotest.(check string) (Printf.sprintf "trace = committed golden at jobs=%d" j) golden
        trace)
    [ 1; 4 ]

let test_trace_schema () =
  (* Every line an object with ordered keys, seq gapless, spans balanced —
     the invariants bin/trace_lint.ml enforces in CI. *)
  let trace, _, _ = at_jobs 1 golden_artifacts in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' trace)
  in
  Alcotest.(check bool) "trace is non-trivial" true (List.length lines > 10);
  let open_spans = Hashtbl.create 8 in
  List.iteri
    (fun i line ->
      let j =
        match J.of_string line with
        | Ok j -> j
        | Error e -> Alcotest.failf "line %d: %s" i e
      in
      Alcotest.(check (option int))
        (Printf.sprintf "seq %d" i)
        (Some i)
        (Option.bind (J.member "seq" j) J.get_int);
      let scope = Option.get (Option.bind (J.member "scope" j) J.get_string) in
      let name = Option.get (Option.bind (J.member "name" j) J.get_string) in
      let depth = Option.value (Hashtbl.find_opt open_spans (scope, name)) ~default:0 in
      match Option.bind (J.member "ev" j) J.get_string with
      | Some "begin" -> Hashtbl.replace open_spans (scope, name) (depth + 1)
      | Some "end" ->
          if depth <= 0 then Alcotest.failf "line %d: end without begin" i;
          Hashtbl.replace open_spans (scope, name) (depth - 1)
      | Some "point" -> ()
      | _ -> Alcotest.failf "line %d: bad ev" i)
    lines;
  Hashtbl.iter
    (fun (scope, name) d ->
      Alcotest.(check int) (Printf.sprintf "span %s/%s balanced" scope name) 0 d)
    open_spans

(* ---------- metrics aggregation ---------- *)

let test_metrics_aggregation () =
  let ctx = Nab_obs.make [ Nab_obs.null_sink ] in
  Nab_obs.add ctx "c" 2;
  Nab_obs.add ctx "c" 3;
  Nab_obs.gauge ctx "g" 7.5;
  Nab_obs.gauge ctx "g" 2.5;
  Nab_obs.observe ctx "h" 1.0;
  Nab_obs.observe ctx "h" 9.0;
  let by_name = List.map (fun m -> (m.Nab_obs.m_name, m)) (Nab_obs.metrics ctx) in
  Nab_obs.close ctx;
  Alcotest.(check (list string)) "sorted names" [ "c"; "g"; "h" ] (List.map fst by_name);
  let m name = List.assoc name by_name in
  Alcotest.(check (float 0.0)) "counter sums" 5.0 (m "c").Nab_obs.m_sum;
  Alcotest.(check (float 0.0)) "gauge last wins" 2.5 (m "g").Nab_obs.m_last;
  Alcotest.(check (float 0.0)) "gauge max" 7.5 (m "g").Nab_obs.m_max;
  Alcotest.(check int) "histogram count" 2 (m "h").Nab_obs.m_count;
  Alcotest.(check (float 0.0)) "histogram min" 1.0 (m "h").Nab_obs.m_min

(* ---------- utilization degenerate case & report rendering ---------- *)

let test_utilization_zero_time () =
  (* Only analytic time elapsed: utilization is [] (no link carried a bit)
     and the report renders the explicit no-traffic line, not an empty
     table. *)
  let sim = Nab_net.Sim.create k4 ~bits:(fun (_ : int) -> 8) in
  Nab_net.Sim.add_cost sim ~phase:"analytic" 5.0;
  Alcotest.(check bool) "analytic-only: no utilization entries" true
    (Nab_net.Sim.utilization sim = []);
  let tm = Nab_net.Sim.timing sim in
  Alcotest.(check (float 1e-9)) "analytic cost counts as wall" 5.0 tm.Nab_net.Sim.wall;
  let inst =
    {
      Nab.k = 1;
      value_bits = 128;
      gamma_k = 2;
      rho_k = 2;
      decisions = [];
      mismatch = false;
      dc_run = false;
      reduced_to_phase1 = false;
      coding_attempts = 1;
      wall_time = 5.0;
      pipelined_time = 5.0;
      phase_stats = tm.Nab_net.Sim.phases;
      utilization = Nab_net.Sim.utilization sim;
      new_disputes = [];
    }
  in
  let rendered = Format.asprintf "%a" Report.pp_phase_breakdown inst in
  Alcotest.(check bool) "renders the no-traffic case" true
    (let needle = "no link traffic" in
     let n = String.length needle and len = String.length rendered in
     let rec scan i = i + n <= len && (String.sub rendered i n = needle || scan (i + 1)) in
     scan 0)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "value round-trips" `Quick test_json_roundtrip;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "bitvec",
        [ Alcotest.test_case "hex round-trip" `Quick test_bitvec_hex ] );
      ( "report",
        [
          Alcotest.test_case "run_report JSON round-trip" `Quick
            test_report_json_roundtrip;
          Alcotest.test_case "malformed JSON rejected" `Quick
            test_report_json_rejects_malformed;
        ] );
      ( "noop",
        [ Alcotest.test_case "no-op sink leaves output identical" `Quick
            test_null_ctx_identity ] );
      ( "artifacts",
        [
          Alcotest.test_case "byte-identical at jobs=1 vs 4" `Quick
            test_artifacts_jobs_independent;
          Alcotest.test_case "trace matches committed golden" `Quick
            test_trace_matches_golden;
          Alcotest.test_case "trace schema invariants" `Quick test_trace_schema;
        ] );
      ( "metrics",
        [ Alcotest.test_case "aggregation semantics" `Quick test_metrics_aggregation ]
      );
      ( "utilization",
        [ Alcotest.test_case "zero-time case defined and rendered" `Quick
            test_utilization_zero_time ] );
    ]
