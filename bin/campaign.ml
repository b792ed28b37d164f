(* Campaign driver: declarative scenario campaigns over the NAB protocol
   with parallel execution, JSONL result artifacts, baseline diffing and
   failing-case shrinking. See EXPERIMENTS.md ("Campaigns") for recipes. *)

open Cmdliner
open Nab_exp

let ( let* ) = Result.bind

let plan_cache_cap_arg =
  let doc =
    "Bound every plan/witness cache to $(docv) entries (LRU eviction; 0 = \
     unbounded), so planning memory stays flat over an open-ended soak. \
     Eviction only changes when a plan recomputes, never a result."
  in
  Arg.(value & opt int 512 & info [ "plan-cache-cap" ] ~docv:"N" ~doc)

let apply_plan_cache_cap cap =
  if cap > 0 then Nab_util.Plan_cache.set_cap_all (Some cap)

(* ---- campaign selection (shared by run/list) ---- *)

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"The built-in deterministic campaign (default).")

let soak_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "soak" ] ~docv:"TRIALS" ~doc:"A randomized soak campaign of $(docv) scenarios.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Soak sampler seed.")

let scenarios_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenarios" ] ~docv:"FILE"
        ~doc:"Run the scenarios of a JSON file (one Scenario.to_json object per line).")

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | content -> Ok content
  | exception Sys_error e -> Error e

let read_scenarios path =
  let* content = read_file path in
  List.fold_left
    (fun acc (lineno, line) ->
      let* acc = acc in
      if line = "" then Ok acc
      else
        match Scenario.of_string line with
        | Ok s -> Ok (s :: acc)
        | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
    (Ok [])
    (List.mapi (fun i line -> (i + 1, line)) (String.split_on_char '\n' content))
  |> Result.map List.rev

(* --backend async (or socket) maps every chosen scenario through
   Scenario.with_backend, so those runs get content-derived ids
   ("+async-<spec>", "+socket") exactly like sync ones. A bad scenario
   file is a usage error (exit 124), like a bad flag. *)
let select _quick soak seed scenarios_file backend =
  let lift =
    match backend with
    | Scenario.Sync -> Fun.id
    | b -> List.map (Scenario.with_backend b)
  in
  Result.map
    (fun scenarios -> (backend, lift scenarios))
    (match (scenarios_file, soak) with
    | Some path, _ -> read_scenarios path
    | None, Some trials -> Ok (Campaigns.soak ~trials ~seed)
    | None, None -> Ok (Campaigns.quick ()))

let selection_term =
  Term.(
    term_result'
      (const select $ quick_arg $ soak_arg $ seed_arg $ scenarios_arg
     $ Cli_flags.backend_term))

(* ---- run ---- *)

(* [results] is where the failing row can be read back: a store
   directory, a result file or a scenario file; [None] when the rows went
   to stdout. *)
let print_failure oc ~results (row : Runner.row) =
  let s = row.Runner.scenario in
  (match row.Runner.outcome with
  | Runner.Error e -> Printf.fprintf oc "ERROR %s: %s\n" s.Scenario.id e
  | _ ->
      List.iter
        (fun (c : Checker.outcome) ->
          if not c.Checker.ok then
            Printf.fprintf oc "FAIL %s [%s]: %s\n" s.Scenario.id c.Checker.name
              c.Checker.detail)
        row.Runner.checks);
  let shrink path =
    Printf.sprintf "dune exec bin/campaign.exe -- shrink %s --id '%s'" path s.Scenario.id
  in
  (match results with
  | Some path -> Printf.fprintf oc "  repro: %s\n" (shrink path)
  | None ->
      Printf.fprintf oc "  repro: save the JSONL rows printed on stdout as F.jsonl, then %s\n"
        (shrink "F.jsonl"));
  match Shrink.cli_command s ~graph_file:"network.graph" with
  | Some cmd ->
      Printf.fprintf oc
        "  rerun (from a shrink repro dir, which contains network.graph): %s\n" cmd
  | None -> ()

(* Progress on stderr: every failure, and passes at most once a second,
   each line with the rate so far and the time left at that rate. *)
let progress ~total =
  let t0 = Unix.gettimeofday () and last = ref neg_infinity in
  fun i (row : Runner.row) ->
    let now = Unix.gettimeofday () in
    let ran = i + 1 in
    if row.Runner.outcome <> Runner.Pass || now -. !last >= 1.0 || ran = total then begin
      last := now;
      let rate = float_of_int ran /. Float.max (now -. t0) 1e-3 in
      Printf.eprintf "[%d/%d] %s %s (%.1f scenarios/s, ETA %.0fs)\n%!" ran total
        (match row.Runner.outcome with
        | Runner.Pass -> "ok  "
        | Runner.Violation -> "FAIL"
        | Runner.Error _ -> "ERR ")
        row.Runner.scenario.Scenario.id rate
        (float_of_int (total - ran) /. rate)
    end

let run_cmd =
  let out_arg =
    Arg.(
      value & opt string "-"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the JSONL results here ('-' = stdout).")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Diff the results against this committed baseline; differences fail the run.")
  in
  let shrink_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "shrink-dir" ] ~docv:"DIR"
          ~doc:"Shrink each violation to a minimal reproducer under $(docv)/ID/.")
  in
  let cache_stats_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-stats" ] ~docv:"FILE"
          ~doc:
            "Also write the plan/witness cache counters (hits, misses, hit \
             rate, entries per cache) as a JSON object to $(docv) — the \
             machine-readable form of the exit footer.")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Run into a sharded on-disk result store instead of a flat \
             JSONL file: scenarios already present (same id and --salt) \
             are skipped, so a killed run resumes and an unchanged rerun \
             is near-free. The store is sealed (canonical id-sorted \
             shards) when the campaign completes.")
  in
  let salt_arg =
    Arg.(
      value & opt string "v1"
      & info [ "salt" ] ~docv:"SALT"
          ~doc:
            "Code-version salt for --store: bump it when protocol or \
             oracle changes invalidate old rows — a store with a \
             different salt is discarded and restarted empty.")
  in
  let limit_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N"
          ~doc:
            "With --store: run at most $(docv) not-yet-stored scenarios \
             this invocation (chunked soak dispatch; the next invocation \
             resumes).")
  in
  let commit_every_arg =
    Arg.(
      value
      & opt int Runner.default_commit_rows
      & info [ "commit-every" ] ~docv:"ROWS"
          ~doc:"With --store: commit (fsync + manifest) every $(docv) rows.")
  in
  let run (backend, scenarios) out baseline shrink_dir cache_stats store_dir salt limit
      commit_every plan_cache_cap =
    apply_plan_cache_cap plan_cache_cap;
    (match backend with
    | Scenario.Socket -> (
        (* Platforms that cannot spawn node processes cannot run socket
           fleets at all; skip the whole campaign loudly instead of
           erroring every scenario. Where the probe succeeds, socket
           failures below are real failures. *)
        match Nab_net.Socket.available () with
        | Ok () -> ()
        | Error reason ->
            Printf.eprintf "campaign: socket backend unavailable (%s): skipping\n%!"
              reason;
            exit 0)
    | _ -> ());
    Printf.eprintf "campaign: %d scenarios (%d jobs)\n%!" (List.length scenarios)
      (Nab_util.Pool.jobs ());
    (* Cache amortization footer: scenarios sharing a topology should plan
       it once, so a sinking hit rate here is a perf regression even while
       every oracle still passes. *)
    let cache_footer () =
      let cache_stats_rows = Nab_util.Plan_cache.global_stats () in
      List.iter
        (fun (name, (s : Nab_util.Plan_cache.stats)) ->
          let total = s.Nab_util.Plan_cache.hits + s.Nab_util.Plan_cache.misses in
          if total > 0 then
            Printf.eprintf
              "plan cache %-24s %d hits / %d misses (%.1f%% hit rate, %d entries, %d evicted)\n%!"
              name s.Nab_util.Plan_cache.hits s.Nab_util.Plan_cache.misses
              (100.0 *. float_of_int s.Nab_util.Plan_cache.hits /. float_of_int total)
              s.Nab_util.Plan_cache.entries s.Nab_util.Plan_cache.evictions)
        cache_stats_rows;
      match cache_stats with
      | None -> ()
      | Some path ->
          let module Json = Nab_obs.Json in
          let json =
            Json.Obj
              (List.map
                 (fun (name, (s : Nab_util.Plan_cache.stats)) ->
                   let total =
                     s.Nab_util.Plan_cache.hits + s.Nab_util.Plan_cache.misses
                   in
                   ( name,
                     Json.Obj
                       [
                         ("hits", Json.Int s.Nab_util.Plan_cache.hits);
                         ("misses", Json.Int s.Nab_util.Plan_cache.misses);
                         ( "hit_rate",
                           Json.float
                             (if total = 0 then 0.0
                              else
                                float_of_int s.Nab_util.Plan_cache.hits
                                /. float_of_int total) );
                         ("entries", Json.Int s.Nab_util.Plan_cache.entries);
                         ("evictions", Json.Int s.Nab_util.Plan_cache.evictions);
                       ] ))
                 cache_stats_rows)
          in
          let oc = open_out path in
          output_string oc (Json.to_string json);
          output_char oc '\n';
          close_out oc
    in
    let shrink_bad ~results bad =
      List.iter (print_failure stderr ~results) bad;
      match shrink_dir with
      | Some dir ->
          List.iter
            (fun (row : Runner.row) ->
              match Shrink.shrink row.Runner.scenario with
              | None -> ()
              | Some r ->
                  let sub = Filename.concat dir r.Shrink.original.Scenario.id in
                  let sub = String.map (fun c -> if c = '/' then '_' else c) sub in
                  let files = Shrink.write_repro ~dir:sub r in
                  Printf.eprintf "shrunk %s -> %s (key %s, %d runs): %s\n%!"
                    r.Shrink.original.Scenario.id r.Shrink.minimized.Scenario.id r.Shrink.key
                    r.Shrink.runs (String.concat ", " files))
            bad
      | None -> ()
    in
    match store_dir with
    | Some _ when baseline <> None ->
        (* Baselining a store is the analyze artifact's job. *)
        Error
          "--baseline cannot be combined with --store (gate on 'campaign analyze' \
           output instead)"
    | Some dir ->
        (* Store-backed (resumable) mode: rows land in the sharded store,
           not a flat file. *)
        let store = Store.open_ ~dir ~salt () in
        Printf.eprintf "store: %s (%d rows present, salt %s)\n%!" dir
          (Store.row_count store) salt;
        let total =
          let pending = List.length (Runner.pending ~store scenarios) in
          match limit with Some l -> min (max 0 l) pending | None -> pending
        in
        let progress = progress ~total in
        let bad = ref [] in
        let summary =
          Runner.run_campaign_store ?limit ~commit_rows:commit_every ~store
            ~on_row:(fun i row ->
              progress i row;
              if row.Runner.outcome <> Runner.Pass then bad := row :: !bad)
            scenarios
        in
        if summary.Runner.complete then Store.seal store;
        Store.close store;
        cache_footer ();
        let bad = List.rev !bad in
        shrink_bad ~results:(Some dir) bad;
        Printf.eprintf
          "campaign: %d requested, %d skipped (already stored), %d ran, %d violations/errors%s\n%!"
          summary.Runner.requested summary.Runner.skipped summary.Runner.ran
          summary.Runner.run_violations
          (if summary.Runner.complete then ", store sealed"
           else " — incomplete (--limit), rerun to resume");
        Ok (if summary.Runner.run_violations > 0 then 1 else 0)
    | None ->
        let rows =
          Runner.run_campaign ~on_row:(progress ~total:(List.length scenarios)) scenarios
        in
        (if out = "-" then Runner.write_jsonl stdout rows
         else
           let oc = open_out out in
           Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Runner.write_jsonl oc rows));
        cache_footer ();
        let bad = Runner.violations rows in
        shrink_bad ~results:(if out = "-" then None else Some out) bad;
        let base_ok =
          match baseline with
          | None -> true
          | Some path -> (
              (* Streams the baseline once (index by id) instead of
                 materializing both sides. *)
              match Runner.diff_stream ~baseline_path:path with
              | Error e ->
                  Printf.eprintf "cannot read baseline: %s\n" e;
                  false
              | Ok (feed, finish) ->
                  List.iter feed rows;
                  let d = finish () in
                  if Runner.diff_is_empty d then begin
                    Printf.eprintf "baseline: no differences\n";
                    true
                  end
                  else begin
                    Format.eprintf "baseline differences:@.%a" Runner.pp_diff d;
                    false
                  end)
        in
        Printf.eprintf "campaign: %d scenarios, %d violations/errors\n%!" (List.length rows)
          (List.length bad);
        Ok (if bad = [] && base_ok then 0 else 1)
  in
  let term =
    Cli_flags.with_jobs
      Term.(
        term_result'
          (const run $ selection_term $ out_arg $ baseline_arg $ shrink_arg
         $ cache_stats_arg $ store_arg $ salt_arg $ limit_arg $ commit_every_arg
         $ plan_cache_cap_arg))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a campaign, stream JSONL results, gate on oracle violations.")
    term

(* ---- list ---- *)

let list_cmd =
  let commands_arg =
    Arg.(
      value & flag
      & info [ "commands" ]
          ~doc:
            "Also print each scenario's exact nab_cli replay command \
             (including the --backend flag for non-sync scenarios), or '-' \
             when the scenario has no flag form (disabled hooks, registered \
             adversaries, partitioned fault specs) and only \
             $(b,campaign replay) can reproduce it.")
  in
  let list (_, scenarios) commands =
    List.iter
      (fun (s : Scenario.t) ->
        if commands then
          Printf.printf "%s\t%s\n" s.Scenario.id
            (match Shrink.cli_command s ~graph_file:"network.graph" with
            | Some cmd -> cmd
            | None -> "-")
        else print_endline s.Scenario.id)
      scenarios;
    0
  in
  let term = Term.(const list $ selection_term $ commands_arg) in
  Cmd.v (Cmd.info "list" ~doc:"Print the scenario ids of a campaign.") term

(* ---- result files and stores (shared by diff/analyze/shrink) ---- *)

let is_store path = Sys.file_exists path && Sys.is_directory path

(* The rows of a store directory or a result file, one at a time. *)
let fold_rows path ~init ~f =
  if is_store path then
    match
      Store.fold ~dir:path ~init ~f:(fun acc line ->
          match Result.bind (Nab_obs.Json.of_string line) Runner.row_of_json with
          | Ok row -> f acc row
          | Error e -> raise (Store.Error (path ^ ": " ^ e)))
    with
    | acc -> Ok acc
    | exception Store.Error e -> Error e
  else Runner.fold_jsonl path ~init ~f

(* ---- diff ---- *)

let diff_cmd =
  let current_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CURRENT" ~doc:"Result JSONL.")
  in
  let baseline_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"BASELINE" ~doc:"Baseline JSONL.")
  in
  let diff current baseline =
    (* Streaming on both sides: the baseline is indexed once, the current
       rows (flat file or sharded store) pass through one at a time. *)
    let result =
      Result.bind (Runner.diff_stream ~baseline_path:baseline) (fun (feed, finish) ->
          Result.map finish (fold_rows current ~init:() ~f:(fun () row -> feed row)))
    in
    match result with
    | Error e ->
        prerr_endline e;
        2
    | Ok d ->
        Format.printf "%a" Runner.pp_diff d;
        if Runner.diff_is_empty d then 0 else 1
  in
  let term = Term.(const diff $ current_arg $ baseline_arg) in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare a result file or store directory against a baseline JSONL, by scenario id.")
    term

(* ---- analyze ---- *)

let analyze_cmd =
  let path_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"PATH"
          ~doc:"A sharded store directory (MANIFEST.json + shards) or a flat result JSONL file.")
  in
  let out_arg =
    Arg.(
      value & opt string "-"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the summary JSON ('-' = stdout). Byte-reproducible at any --jobs.")
  in
  let md_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "md" ] ~docv:"FILE" ~doc:"Also render the summary tables as markdown to $(docv).")
  in
  let write_file path content =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)
  in
  let analyze path out md =
    let source = if is_store path then Analyze.Store_dir path else Analyze.Jsonl path in
    match Analyze.of_source source with
    | Error e ->
        prerr_endline e;
        2
    | Ok t ->
        let json = Nab_obs.Json.to_string (Analyze.to_json t) ^ "\n" in
        if out = "-" then print_string json else write_file out json;
        Option.iter (fun p -> write_file p (Analyze.to_markdown t)) md;
        0
  in
  let term = Cli_flags.with_jobs Term.(const analyze $ path_arg $ out_arg $ md_arg) in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Aggregate a campaign (store directory or JSONL) into deterministic summary \
          tables: outcomes and throughput per topology family, goodput vs. certified \
          capacity, oblivious-gap quantiles, dispute histograms, fault-sensitivity \
          slices. Streaming: memory is independent of campaign size.")
    term

(* ---- shrink ---- *)

let shrink_cmd =
  let file_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"PATH"
          ~doc:"A store directory, a result JSONL, or a single scenario JSON file.")
  in
  let id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID"
          ~doc:"Which row of a store or result file to shrink (default: first failing).")
  in
  let out_arg =
    Arg.(value & opt string "repro" & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Repro bundle directory.")
  in
  let max_runs_arg =
    Arg.(value & opt int 400 & info [ "max-runs" ] ~docv:"N" ~doc:"Budget of candidate executions.")
  in
  let shrink path id out max_runs =
    let* scenario =
      if is_store path || Filename.check_suffix path ".jsonl" then
        let wanted (r : Runner.row) =
          match id with
          | Some id -> r.Runner.scenario.Scenario.id = id
          | None -> r.Runner.outcome <> Runner.Pass
        in
        let* found =
          fold_rows path ~init:None ~f:(fun found r ->
              if Option.is_none found && wanted r then Some r.Runner.scenario else found)
        in
        Option.to_result found ~none:("no matching (failing) row in " ^ path)
      else Result.bind (read_file path) Scenario.of_string
    in
    match Shrink.shrink ~max_runs scenario with
    | None ->
        Printf.printf "scenario %s passes every check; nothing to shrink\n"
          scenario.Scenario.id;
        Ok 2
    | Some r ->
        let files = Shrink.write_repro ~dir:out r in
        Printf.printf "violation key: %s\nminimized: %s (%d runs)\nwrote:\n" r.Shrink.key
          r.Shrink.minimized.Scenario.id r.Shrink.runs;
        List.iter (fun f -> Printf.printf "  %s\n" f) files;
        (match
           Shrink.cli_command r.Shrink.minimized
             ~graph_file:(Filename.concat out "network.graph")
         with
        | Some cmd -> Printf.printf "replay: %s\n" cmd
        | None ->
            Printf.printf "replay: %s\n"
              (Shrink.replay_command ~scenario_file:(Filename.concat out "scenario.json")));
        Ok 0
  in
  let term =
    Cli_flags.with_jobs
      Term.(term_result' (const shrink $ file_arg $ id_arg $ out_arg $ max_runs_arg))
  in
  Cmd.v
    (Cmd.info "shrink" ~doc:"Minimize a failing scenario to a self-contained reproducer.")
    term

(* ---- replay ---- *)

let replay_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Scenario JSON file.")
  in
  let replay file =
    match Result.bind (read_file file) Scenario.of_string with
    | Error e ->
        prerr_endline e;
        2
    | Ok s -> (
        let row = Runner.run_scenario s in
        Printf.printf "scenario: %s\n" s.Scenario.id;
        match row.Runner.outcome with
        | Runner.Pass ->
            List.iter
              (fun (c : Checker.outcome) ->
                Printf.printf "PASS %s — %s\n" c.Checker.name c.Checker.detail)
              row.Runner.checks;
            0
        | _ ->
            print_failure stdout ~results:(Some file) row;
            1)
  in
  let term = Cli_flags.with_jobs Term.(const replay $ file_arg) in
  Cmd.v (Cmd.info "replay" ~doc:"Run a single scenario JSON file and report its checks.") term

let () =
  (* Must run before anything else: when this binary is re-executed as a
     socket-backend node process, it becomes the node's event loop and
     never returns. In a normal invocation it installs the re-exec hook. *)
  Nab_net.Socket.exec_node_if_requested ();
  let doc = "NAB scenario campaigns: run, analyze, diff, shrink, replay" in
  let info = Cmd.info "campaign" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info [ run_cmd; list_cmd; analyze_cmd; diff_cmd; shrink_cmd; replay_cmd ]))
