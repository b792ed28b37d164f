(* Campaign-store benchmark: the cost model of the sharded, resumable
   result store at soak shape. Flags are shared by every bench (see
   harness.ml):

     dune exec bench/campaign.exe --            # full sweep -> BENCH_campaign.json
     dune exec bench/campaign.exe -- --quick    # smaller sampled tier
     dune exec bench/campaign.exe -- --check    # correctness gates only (CI)
     dune exec bench/campaign.exe -- --verify-artifact F.json
                                                # fail unless the artifact has the
                                                # cold/warm/resume rows and its
                                                # recorded skip fraction / speedup
                                                # meet the floors

   Three temperatures over the same sampled campaign:
     cold        fresh store, cold plan caches — the first overnight run;
     warm        fresh store, warm plan caches — what adding new scenarios
                 to an existing soak costs;
     resume-skip rerun over the complete store — an unchanged rerun must
                 skip everything and be "near-free" (>= 99% skipped, >= 5x
                 faster than cold; in practice orders of magnitude).
   Plus the streaming analyze pass over the sealed store, in rows/sec.

   Wall-clock numbers are real seconds and machine-dependent, so the CI
   gate checks presence and the recorded floors, never timings. *)

module Store = Nab_exp.Store
module Runner = Nab_exp.Runner
module Analyze = Nab_exp.Analyze
module Json = Nab_obs.Json

let seed = 11
let salt = "bench"

let now () = Unix.gettimeofday ()

(* ------------------------------ scratch ------------------------------ *)

let scratch_root = "_bench_campaign_scratch"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  if not (Sys.file_exists scratch_root) then Sys.mkdir scratch_root 0o755;
  let dir = Filename.concat scratch_root name in
  rm_rf dir;
  dir

(* Byte-level fingerprint of a store directory: (file name, MD5) sorted. *)
let dir_bytes dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun n -> (n, Digest.to_hex (Digest.file (Filename.concat dir n))))

(* ------------------------------ timing ------------------------------ *)

let run_store ~dir ?limit scenarios =
  let store = Store.open_ ~dir ~salt () in
  let summary = Runner.run_campaign_store ?limit ~store scenarios in
  if summary.Runner.complete then Store.seal store;
  Store.close store;
  summary

type temp = { t_name : string; t_seconds : float; t_ran : int; t_skipped : int }

let time_temp name f =
  let t0 = now () in
  let summary = f () in
  {
    t_name = name;
    t_seconds = now () -. t0;
    t_ran = summary.Runner.ran;
    t_skipped = summary.Runner.skipped;
  }

let per_sec n s = if s > 0.0 then float_of_int n /. s else infinity

let sweep ~quick ~(write : Harness.writer) =
  let trials = if quick then 150 else 400 in
  let scenarios = Nab_exp.Campaigns.soak ~trials ~seed in
  Printf.printf "campaign store bench: %d sampled scenarios (jobs=%d)\n%!" trials
    (Nab_util.Pool.jobs ());
  let cold_dir = fresh_dir "cold" in
  Nab_util.Plan_cache.clear_all ();
  let cold = time_temp "cold" (fun () -> run_store ~dir:cold_dir scenarios) in
  (* Same scenarios into a fresh store, planning caches still warm. *)
  let warm_dir = fresh_dir "warm" in
  let warm = time_temp "warm" (fun () -> run_store ~dir:warm_dir scenarios) in
  (* Unchanged rerun over the completed store: everything skips. *)
  let skip = time_temp "resume-skip" (fun () -> run_store ~dir:cold_dir scenarios) in
  let skip_fraction = float_of_int skip.t_skipped /. float_of_int trials in
  let speedup = cold.t_seconds /. (max 1e-9 skip.t_seconds) in
  let t0 = now () in
  let analyze_rows =
    match Analyze.of_source (Analyze.Store_dir cold_dir) with
    | Ok t -> (
        match Json.member "rows" (Analyze.to_json t) with
        | Some (Json.Int n) -> n
        | _ -> 0)
    | Error e ->
        Printf.eprintf "analyze failed: %s\n" e;
        exit 1
  in
  let analyze_s = now () -. t0 in
  List.iter
    (fun t ->
      Printf.printf "%-12s %7.2fs  %5d ran  %5d skipped  %8.1f scenarios/s\n" t.t_name
        t.t_seconds t.t_ran t.t_skipped
        (per_sec (t.t_ran + t.t_skipped) t.t_seconds))
    [ cold; warm; skip ];
  Printf.printf "%-12s %7.2fs  %5d rows %19s %8.1f rows/s\n" "analyze" analyze_s analyze_rows
    "" (per_sec analyze_rows analyze_s);
  Printf.printf "resume-skip: %.1f%% skipped, %.1fx vs cold\n%!" (100.0 *. skip_fraction)
    speedup;
  let skip_ok = skip_fraction >= 0.99 in
  let speedup_ok = speedup >= 5.0 in
  if not skip_ok then Printf.eprintf "FAIL: skip fraction %.3f < 0.99\n" skip_fraction;
  if not speedup_ok then Printf.eprintf "FAIL: resume-skip speedup %.1fx < 5x\n" speedup;
  let temp_json t extra =
    Json.Obj
      ([
         ("seconds", Json.float t.t_seconds);
         ("ran", Json.Int t.t_ran);
         ("skipped", Json.Int t.t_skipped);
         ("scenarios_per_sec", Json.float (per_sec (t.t_ran + t.t_skipped) t.t_seconds));
       ]
      @ extra)
  in
  write
    ~config:
      [
        ("trials", Json.Int trials);
        ("seed", Json.Int seed);
        ("jobs", Json.Int (Nab_util.Pool.jobs ()));
        ("commit_every", Json.Int Runner.default_commit_rows);
      ]
    ~results:
      (Json.Obj
         [
           ("cold", temp_json cold []);
           ("warm", temp_json warm []);
           ( "resume_skip",
             temp_json skip
               [
                 ("skip_fraction", Json.float skip_fraction);
                 ("speedup_vs_cold", Json.float speedup);
               ] );
           ( "analyze",
             Json.Obj
               [
                 ("seconds", Json.float analyze_s);
                 ("rows", Json.Int analyze_rows);
                 ("rows_per_sec", Json.float (per_sec analyze_rows analyze_s));
               ] );
         ])
    [
      ( "asserts",
        Json.Obj [ ("skip_fraction_ok", Json.Bool skip_ok); ("speedup_ok", Json.Bool speedup_ok) ]
      );
    ];
  rm_rf scratch_root;
  if not (skip_ok && speedup_ok) then exit 1

(* ------------------------------ checks ------------------------------

   The store's correctness claims, small enough for CI: an interrupted and
   resumed campaign (at a different job count) seals to the same bytes as
   a one-shot run; an unchanged rerun skips everything and runs nothing;
   the parallel analyze emits identical bytes at any job count. *)

let run_checks () =
  let check = Harness.check in
  let trials = 40 in
  let scenarios = Nab_exp.Campaigns.soak ~trials ~seed in
  (* one-shot at jobs=1 *)
  Nab_util.Pool.set_jobs 1;
  let oneshot = fresh_dir "oneshot" in
  let s1 = run_store ~dir:oneshot scenarios in
  check "one-shot complete" (s1.Runner.complete && s1.Runner.ran = trials);
  (* interrupted at jobs=4, resumed at jobs=4 *)
  Nab_util.Pool.set_jobs 4;
  let resumed = fresh_dir "resumed" in
  let part = run_store ~dir:resumed ~limit:(trials / 2) scenarios in
  check "interrupted run stops early" (not part.Runner.complete);
  let rest = run_store ~dir:resumed scenarios in
  check "resume completes" rest.Runner.complete;
  check "resume skips the stored half" (rest.Runner.skipped = trials / 2);
  check "interrupted+resumed store byte-identical to one-shot"
    (dir_bytes oneshot = dir_bytes resumed);
  (* unchanged rerun: everything skips, nothing runs *)
  let again = run_store ~dir:oneshot scenarios in
  check "unchanged rerun runs nothing" (again.Runner.ran = 0 && again.Runner.skipped = trials);
  check "unchanged rerun store untouched" (dir_bytes oneshot = dir_bytes resumed);
  (* analyze bytes independent of jobs *)
  let analyze_string jobs =
    match Analyze.of_source ~jobs (Analyze.Store_dir oneshot) with
    | Ok t -> Json.to_string (Analyze.to_json t)
    | Error e ->
        Printf.eprintf "analyze: %s\n" e;
        exit 1
  in
  check "analyze byte-identical at jobs 1 vs 4" (analyze_string 1 = analyze_string 4);
  rm_rf scratch_root

(* --------------------------- verify artifact --------------------------- *)

(* The cold, warm, resume-skip and analyze blocks must be present, and the
   recorded resume-skip floors and analyze row count must hold. *)
let required_rows =
  let field path conv doc =
    Option.bind (List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some doc) path) conv
  in
  List.map
    (fun t -> (t, fun doc -> field [ "results"; t ] Option.some doc <> None))
    [ "cold"; "warm"; "resume_skip"; "analyze" ]
  @ [
      ( "resume_skip.skip_fraction >= 0.99",
        fun doc ->
          match field [ "results"; "resume_skip"; "skip_fraction" ] Json.get_float doc with
          | Some f -> f >= 0.99
          | None -> false );
      ( "resume_skip.speedup_vs_cold >= 5",
        fun doc ->
          match field [ "results"; "resume_skip"; "speedup_vs_cold" ] Json.get_float doc with
          | Some s -> s >= 5.0
          | None -> false );
      ( "analyze.rows = cold.ran > 0",
        fun doc ->
          match
            ( field [ "results"; "cold"; "ran" ] Json.get_int doc,
              field [ "results"; "analyze"; "rows" ] Json.get_int doc )
          with
          | Some ran, Some rows -> ran > 0 && rows = ran
          | _ -> false );
    ]

(* ------------------------------- main ------------------------------- *)

let () =
  Harness.run ~name:"campaign" ~wall_clock:true ~verify:required_rows ~check:run_checks
    sweep
