(* Campaign driver: declarative scenario campaigns over the NAB protocol
   with parallel execution, JSONL result artifacts, baseline diffing and
   failing-case shrinking. See EXPERIMENTS.md ("Campaigns") for recipes. *)

open Cmdliner
open Nab_exp

let jobs_arg =
  let doc =
    "Worker domains for scenario execution and the analytical sweeps. \
     Overrides NAB_JOBS; 0 keeps the default. Results are byte-identical \
     at any job count."
  in
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"JOBS" ~doc)

let jobs_term =
  Term.(const (fun jobs -> if jobs > 0 then Nab_util.Pool.set_jobs jobs) $ jobs_arg)

let with_jobs term = Term.(const (fun () r -> r) $ jobs_term $ term)

let plan_cache_cap_arg =
  let doc =
    "Bound every plan/witness cache to $(docv) entries (LRU eviction). \
     Unbounded by default; set this for open-ended soaks so planning \
     memory stays flat. Eviction only changes when a plan recomputes, \
     never a result."
  in
  Arg.(value & opt int 0 & info [ "plan-cache-cap" ] ~docv:"N" ~doc)

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

(* ---- network backend (shared by run/list) ----

   The flags mirror nab_cli's: selecting --backend async maps every chosen
   scenario through Scenario.with_backend, so async runs get content-derived
   ids ("+async-<spec>") exactly like sync ones. *)

let net_backend_arg =
  Arg.(
    value
    & opt (enum [ ("sync", `Sync); ("async", `Async); ("socket", `Socket) ]) `Sync
    & info [ "backend" ] ~docv:"NET"
        ~doc:
          "Network backend for every scenario: sync (default), async \
           (event-driven, with injectable faults) or socket (one OS process \
           per node over real Unix-domain sockets).")

let latency_arg =
  Arg.(
    value & opt string "zero"
    & info [ "latency" ] ~docv:"SPEC"
        ~doc:"Async per-message latency: zero, const:T, uniform:LO:HI or exp:MEAN.")

let jitter_arg =
  Arg.(
    value & opt float 0.0
    & info [ "jitter" ] ~docv:"J" ~doc:"Async extra uniform [0,J) delay per message.")

let reorder_arg =
  Arg.(
    value & opt string ""
    & info [ "reorder" ] ~docv:"P[:D]"
        ~doc:
          "Async reordering: bump each message with probability P by D time \
           units (D omitted = one round's transmission time).")

let crash_arg =
  Arg.(
    value & opt string ""
    & info [ "crash" ] ~docv:"N@T,.."
        ~doc:"Async crash faults: node N sends/receives nothing from time T.")

let fault_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed for the async fault randomness (replay key).")

let backend_of_flags backend latency jitter reorder crash fault_seed =
  let reject_faults () =
    if latency <> "zero" || jitter <> 0.0 || reorder <> "" || crash <> ""
       || fault_seed <> 0
    then
      failwith
        "fault flags (--latency/--jitter/--reorder/--crash/--fault-seed) \
         require --backend async"
  in
  match backend with
  | `Sync ->
      reject_faults ();
      Scenario.Sync
  | `Socket ->
      reject_faults ();
      Scenario.Socket
  | `Async -> (
      match
        Nab_net.Async_sim.spec_of_flags ~latency ~jitter ~reorder ~crash
          ~seed:fault_seed
      with
      | Ok spec -> Scenario.Async spec
      | Error e -> failwith e)

let backend_term =
  Term.(
    const backend_of_flags $ net_backend_arg $ latency_arg $ jitter_arg
    $ reorder_arg $ crash_arg $ fault_seed_arg)

let apply_backend backend scenarios =
  match backend with
  | Scenario.Sync -> scenarios
  | b -> List.map (Scenario.with_backend b) scenarios

let select quick soak seed scenarios_file =
  match scenarios_file with
  | Some path ->
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go lineno acc =
            match input_line ic with
            | exception End_of_file -> List.rev acc
            | "" -> go (lineno + 1) acc
            | line -> (
                match Scenario.of_string line with
                | Ok s -> go (lineno + 1) (s :: acc)
                | Error e -> failwith (Printf.sprintf "%s:%d: %s" path lineno e))
          in
          go 1 [])
  | None -> (
      ignore quick;
      match soak with
      | Some trials -> Campaigns.soak ~trials ~seed
      | None -> Campaigns.quick ())

(* ---- run ---- *)

let print_failure oc (row : Runner.row) =
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
  Printf.fprintf oc "  repro: dune exec bin/campaign.exe -- shrink RESULTS.jsonl --id '%s'\n"
    s.Scenario.id;
  match Shrink.cli_command s ~graph_file:"network.graph" with
  | Some cmd ->
      Printf.fprintf oc
        "  rerun (from a shrink repro dir, which contains network.graph): %s\n" cmd
  | None -> ()

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
  let run quick soak seed scenarios_file backend out baseline shrink_dir cache_stats
      store_dir salt limit commit_every plan_cache_cap =
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
    let scenarios = apply_backend backend (select quick soak seed scenarios_file) in
    Printf.eprintf "campaign: %d scenarios (%d jobs)\n%!" (List.length scenarios)
      (Nab_util.Pool.jobs ());
    let progress total i row =
      Printf.eprintf "[%d/%s] %s %s\n%!" (i + 1) total
        (match row.Runner.outcome with
        | Runner.Pass -> "ok  "
        | Runner.Violation -> "FAIL"
        | Runner.Error _ -> "ERR ")
        row.Runner.scenario.Scenario.id
    in
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
    let shrink_bad bad =
      List.iter (print_failure stderr) bad;
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
    | Some dir ->
        (* Store-backed (resumable) mode: rows land in the sharded store,
           not a flat file; baselining a store is the analyze artifact's
           job. *)
        if baseline <> None then
          failwith "--baseline cannot be combined with --store (gate on 'campaign analyze' output instead)";
        let store = Store.open_ ~dir ~salt () in
        Printf.eprintf "store: %s (%d rows present, salt %s)\n%!" dir
          (Store.row_count store) salt;
        let bad = ref [] in
        let summary =
          Runner.run_campaign_store ?limit ~commit_rows:commit_every ~store
            ~on_row:(fun i row ->
              progress "?" i row;
              if row.Runner.outcome <> Runner.Pass then bad := row :: !bad)
            scenarios
        in
        if summary.Runner.complete then Store.seal store;
        Store.close store;
        cache_footer ();
        let bad = List.rev !bad in
        shrink_bad bad;
        Printf.eprintf
          "campaign: %d requested, %d skipped (already stored), %d ran, %d violations/errors%s\n%!"
          summary.Runner.requested summary.Runner.skipped summary.Runner.ran
          summary.Runner.run_violations
          (if summary.Runner.complete then ", store sealed"
           else " — incomplete (--limit), rerun to resume");
        if summary.Runner.run_violations > 0 then 1 else 0
    | None ->
        let total = string_of_int (List.length scenarios) in
        let rows =
          Runner.run_campaign ~on_row:(fun i row -> progress total i row) scenarios
        in
        (if out = "-" then Runner.write_jsonl stdout rows
         else
           let oc = open_out out in
           Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Runner.write_jsonl oc rows));
        cache_footer ();
        let bad = Runner.violations rows in
        shrink_bad bad;
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
        if bad = [] && base_ok then 0 else 1
  in
  let term =
    with_jobs
      Term.(
        const run $ quick_arg $ soak_arg $ seed_arg $ scenarios_arg $ backend_term
        $ out_arg $ baseline_arg $ shrink_arg $ cache_stats_arg $ store_arg $ salt_arg
        $ limit_arg $ commit_every_arg $ plan_cache_cap_arg)
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
  let list quick soak seed scenarios_file backend commands =
    List.iter
      (fun (s : Scenario.t) ->
        if commands then
          Printf.printf "%s\t%s\n" s.Scenario.id
            (match Shrink.cli_command s ~graph_file:"network.graph" with
            | Some cmd -> cmd
            | None -> "-")
        else print_endline s.Scenario.id)
      (apply_backend backend (select quick soak seed scenarios_file));
    0
  in
  let term =
    Term.(
      const list $ quick_arg $ soak_arg $ seed_arg $ scenarios_arg $ backend_term
      $ commands_arg)
  in
  Cmd.v (Cmd.info "list" ~doc:"Print the scenario ids of a campaign.") term

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
      if Sys.file_exists current && Sys.is_directory current then
        match Runner.diff_stream ~baseline_path:baseline with
        | Error e -> Error e
        | Ok (feed, finish) -> (
            match
              Store.fold ~dir:current ~init:() ~f:(fun () line ->
                  match Result.bind (Nab_obs.Json.of_string line) Runner.row_of_json with
                  | Ok row -> feed row
                  | Error e -> raise (Store.Error (current ^ ": " ^ e)))
            with
            | () -> Ok (finish ())
            | exception Store.Error e -> Error e)
      else Runner.diff_jsonl ~baseline_path:baseline ~current_path:current
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
    let source =
      if Sys.file_exists path && Sys.is_directory path then Analyze.Store_dir path
      else Analyze.Jsonl path
    in
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
  let term = with_jobs Term.(const analyze $ path_arg $ out_arg $ md_arg) in
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
      & info [] ~docv:"FILE" ~doc:"A result JSONL, or a single scenario JSON file.")
  in
  let id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID" ~doc:"Which row of a result file to shrink (default: first failing).")
  in
  let out_arg =
    Arg.(value & opt string "repro" & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Repro bundle directory.")
  in
  let max_runs_arg =
    Arg.(value & opt int 400 & info [ "max-runs" ] ~docv:"N" ~doc:"Budget of candidate executions.")
  in
  let shrink file id out max_runs =
    let scenario =
      if Filename.check_suffix file ".jsonl" then
        match Runner.read_jsonl file with
        | Error e -> failwith e
        | Ok rows -> (
            let pick =
              match id with
              | Some id ->
                  List.find_opt (fun (r : Runner.row) -> r.Runner.scenario.Scenario.id = id) rows
              | None ->
                  List.find_opt (fun (r : Runner.row) -> r.Runner.outcome <> Runner.Pass) rows
            in
            match pick with
            | Some r -> r.Runner.scenario
            | None -> failwith "no matching (failing) row in the result file")
      else
        let ic = open_in file in
        let content =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match Scenario.of_string content with Ok s -> s | Error e -> failwith e
    in
    match Shrink.shrink ~max_runs scenario with
    | None ->
        Printf.printf "scenario %s passes every check; nothing to shrink\n"
          scenario.Scenario.id;
        2
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
        0
  in
  let term = with_jobs Term.(const shrink $ file_arg $ id_arg $ out_arg $ max_runs_arg) in
  Cmd.v
    (Cmd.info "shrink" ~doc:"Minimize a failing scenario to a self-contained reproducer.")
    term

(* ---- replay ---- *)

let replay_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Scenario JSON file.")
  in
  let replay file =
    let ic = open_in file in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Scenario.of_string content with
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
            print_failure stdout row;
            1)
  in
  let term = with_jobs Term.(const replay $ file_arg) in
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
