(* The campaign-at-scale layer: the sharded crash-safe result store, the
   resumable runner, the streaming readers/diff, the bounded plan cache,
   and the deterministic analyze step.

   The headline property pinned here (an ISSUE-10 acceptance criterion):
   a campaign killed mid-run and resumed — at a different job count, with
   a torn partial line on disk — seals to a store byte-identical to a
   one-shot run. *)

open Nab_exp
module Json = Nab_obs.Json

let tmp_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("nab_store_test_" ^ name) in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm dir;
  dir

let dir_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun n ->
         let ic = open_in_bin (Filename.concat dir n) in
         let s = really_input_string ic (in_channel_length ic) in
         close_in ic;
         (n, s))

(* ---- store basics ---- *)

let test_store_roundtrip () =
  let dir = tmp_dir "roundtrip" in
  let st = Store.open_ ~shards:4 ~dir ~salt:"s1" () in
  Store.add st ~id:"a" ~line:{|{"id":"a","v":1}|};
  Store.add st ~id:"b" ~line:{|{"id":"b","v":2}|};
  Alcotest.(check int) "pending before commit" 2 (Store.pending st);
  Alcotest.(check int) "rows before commit" 0 (Store.row_count st);
  Alcotest.(check bool) "mem sees pending" true (Store.mem st "a");
  Store.commit st;
  Alcotest.(check int) "rows after commit" 2 (Store.row_count st);
  (match Store.add st ~id:"a" ~line:"{}" with
  | exception Store.Error _ -> ()
  | () -> Alcotest.fail "duplicate id accepted");
  Store.close st;
  (* reopen: same rows, ids indexed *)
  let st = Store.open_ ~shards:4 ~dir ~salt:"s1" () in
  Alcotest.(check int) "rows after reopen" 2 (Store.row_count st);
  Alcotest.(check bool) "mem after reopen" true (Store.mem st "a" && Store.mem st "b");
  Alcotest.(check bool) "absent id" false (Store.mem st "c");
  Store.close st;
  (* streaming reader sees every committed line, shard order *)
  let lines = Store.fold ~dir ~init:[] ~f:(fun acc l -> l :: acc) in
  Alcotest.(check int) "fold sees both rows" 2 (List.length lines);
  (* shard placement is the content fingerprint, stable across shard counts *)
  Alcotest.(check int) "shard_of_id deterministic"
    (Store.shard_of_id ~shards:4 "a")
    (Store.shard_of_id ~shards:4 "a")

let test_store_torn_tail () =
  let dir = tmp_dir "torn" in
  let st = Store.open_ ~shards:2 ~dir ~salt:"s1" () in
  Store.add st ~id:"a" ~line:{|{"id":"a"}|};
  Store.commit st;
  Store.close st;
  (* simulate a crash mid-append: garbage past the committed region *)
  let shard = Store.shard_of_id ~shards:2 "a" in
  let path = Filename.concat dir (Store.shard_name shard) in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc {|{"id":"b","trunc|};
  close_out oc;
  let st = Store.open_ ~shards:2 ~dir ~salt:"s1" () in
  Alcotest.(check int) "torn tail dropped" 1 (Store.row_count st);
  Alcotest.(check bool) "torn row not indexed" false (Store.mem st "b");
  (* and the truncated file accepts new appends cleanly *)
  Store.add st ~id:"b" ~line:{|{"id":"b"}|};
  Store.commit st;
  Alcotest.(check int) "append after recovery" 2 (Store.row_count st);
  Store.close st

let test_store_salt_mismatch () =
  let dir = tmp_dir "salt" in
  let st = Store.open_ ~dir ~salt:"v1" () in
  Store.add st ~id:"a" ~line:{|{"id":"a"}|};
  Store.commit st;
  Store.close st;
  (* a different code-version salt must not satisfy a resume *)
  let st = Store.open_ ~dir ~salt:"v2" () in
  Alcotest.(check int) "different salt restarts empty" 0 (Store.row_count st);
  Alcotest.(check bool) "old row gone" false (Store.mem st "a");
  Store.close st

let test_store_corruption_detected () =
  let dir = tmp_dir "corrupt" in
  let st = Store.open_ ~shards:1 ~dir ~salt:"s1" () in
  Store.add st ~id:"aa" ~line:{|{"id":"aa","v":1}|};
  Store.commit st;
  Store.close st;
  (* flip a byte inside the committed region *)
  let path = Filename.concat dir (Store.shard_name 0) in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd 9 Unix.SEEK_SET);
  ignore (Unix.write_substring fd "X" 0 1);
  Unix.close fd;
  match Store.open_ ~shards:1 ~dir ~salt:"s1" () with
  | exception Store.Error _ -> ()
  | st ->
      Store.close st;
      Alcotest.fail "corrupt committed region opened silently"

(* ---- resume determinism (ISSUE acceptance criterion) ---- *)

let soak_scenarios = Campaigns.soak ~trials:24 ~seed:5

let run_into ~jobs ?limit dir =
  let st = Store.open_ ~dir ~salt:"t" () in
  let summary = Runner.run_campaign_store ~jobs ?limit ~commit_rows:7 ~store:st soak_scenarios in
  if summary.Runner.complete then Store.seal ~jobs st;
  Store.close st;
  summary

let test_resume_determinism () =
  (* one-shot at jobs 1 *)
  let one = tmp_dir "oneshot" in
  let s = run_into ~jobs:1 one in
  Alcotest.(check bool) "one-shot complete" true (s.Runner.complete && s.Runner.ran > 0);
  (* killed mid-run (limit), with a torn append, resumed at jobs 4 *)
  let res = tmp_dir "resumed" in
  let part = run_into ~jobs:4 ~limit:11 res in
  Alcotest.(check bool) "interrupted incomplete" true (not part.Runner.complete);
  let torn_path = Filename.concat res (Store.shard_name 3) in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 torn_path in
  output_string oc {|{"id":"half-a-row|};
  close_out oc;
  let rest = run_into ~jobs:4 res in
  Alcotest.(check bool) "resume complete" true rest.Runner.complete;
  Alcotest.(check int) "resume skipped the stored rows" 11 rest.Runner.skipped;
  Alcotest.(check bool) "interrupted+resumed == one-shot, byte for byte" true
    (dir_files one = dir_files res);
  (* unchanged rerun: skips everything, changes nothing *)
  let again = run_into ~jobs:4 one in
  Alcotest.(check int) "unchanged rerun runs nothing" 0 again.Runner.ran;
  Alcotest.(check bool) "unchanged rerun leaves bytes alone" true (dir_files one = dir_files res)

(* ---- streaming reader and diff ---- *)

let baseline_path = "../CAMPAIGN_baseline.jsonl"

let test_fold_jsonl_matches_read () =
  let folded =
    match Runner.fold_jsonl baseline_path ~init:[] ~f:(fun acc r -> r :: acc) with
    | Ok rows -> List.rev rows
    | Error e -> Alcotest.fail e
  in
  let read = match Runner.read_jsonl baseline_path with Ok r -> r | Error e -> Alcotest.fail e in
  Alcotest.(check int) "same row count" (List.length read) (List.length folded);
  Alcotest.(check bool) "same rows in order" true
    (List.for_all2
       (fun a b -> Json.to_string (Runner.row_to_json a) = Json.to_string (Runner.row_to_json b))
       read folded)

let test_diff_jsonl_self_empty () =
  match Runner.diff_jsonl ~baseline_path ~current_path:baseline_path with
  | Error e -> Alcotest.fail e
  | Ok d -> Alcotest.(check bool) "file diffs empty against itself" true (Runner.diff_is_empty d)

(* ---- plan cache LRU bound ---- *)

let test_plan_cache_lru () =
  let cache = Nab_util.Plan_cache.create ~cap:2 ~name:"test.lru" () in
  let compute k = Nab_util.Plan_cache.find_or_compute cache ~key:k (fun () -> k ^ "!") in
  ignore (compute "a");
  ignore (compute "b");
  ignore (compute "a");
  (* recency: a is fresher than b, so c evicts b *)
  ignore (compute "c");
  Alcotest.(check bool) "a survived (recently used)" true
    (Nab_util.Plan_cache.find cache ~key:"a" <> None);
  Alcotest.(check bool) "b evicted (LRU)" true
    (Nab_util.Plan_cache.find cache ~key:"b" = None);
  let s = Nab_util.Plan_cache.stats cache in
  Alcotest.(check int) "entries bounded" 2 s.Nab_util.Plan_cache.entries;
  Alcotest.(check int) "eviction counted" 1 s.Nab_util.Plan_cache.evictions;
  (* an evicted key recomputes to the same value: eviction is invisible *)
  Alcotest.(check string) "evicted key recomputes" "b!" (compute "b");
  (* shrinking the cap evicts immediately *)
  Nab_util.Plan_cache.set_cap cache (Some 1);
  let s = Nab_util.Plan_cache.stats cache in
  Alcotest.(check int) "set_cap shrinks now" 1 s.Nab_util.Plan_cache.entries;
  (* unbounded again: no further evictions *)
  Nab_util.Plan_cache.set_cap cache None;
  ignore (compute "d");
  ignore (compute "e");
  let s = Nab_util.Plan_cache.stats cache in
  Alcotest.(check int) "uncapped grows" 3 s.Nab_util.Plan_cache.entries

let test_plan_cache_unbounded_default () =
  let cache = Nab_util.Plan_cache.create ~name:"test.unbounded" () in
  for i = 0 to 99 do
    ignore
      (Nab_util.Plan_cache.find_or_compute cache ~key:(string_of_int i) (fun () -> i))
  done;
  let s = Nab_util.Plan_cache.stats cache in
  Alcotest.(check int) "no evictions by default" 0 s.Nab_util.Plan_cache.evictions;
  Alcotest.(check int) "all entries retained" 100 s.Nab_util.Plan_cache.entries

(* ---- analyze ---- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_analyze_matches_committed () =
  (* The committed quick-tier analyze artifact is a pure function of the
     committed baseline rows, at any job count; this is the byte-level gate
     CI relies on. *)
  List.iter
    (fun jobs ->
      match Analyze.of_source ~jobs (Analyze.Jsonl baseline_path) with
      | Error e -> Alcotest.fail e
      | Ok t ->
          Alcotest.(check string)
            (Printf.sprintf "CAMPAIGN_analyze.json matches the baseline rows at jobs=%d" jobs)
            (read_file "../CAMPAIGN_analyze.json")
            (Json.to_string (Analyze.to_json t) ^ "\n");
          Alcotest.(check string)
            (Printf.sprintf "CAMPAIGN_analyze.md matches the baseline rows at jobs=%d" jobs)
            (read_file "../CAMPAIGN_analyze.md")
            (Analyze.to_markdown t))
    [ 1; 4 ]

let test_analyze_jobs_independent () =
  let dir = tmp_dir "analyze" in
  ignore (run_into ~jobs:4 dir);
  let at jobs =
    match Analyze.of_source ~jobs (Analyze.Store_dir dir) with
    | Ok t -> Json.to_string (Analyze.to_json t)
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "analyze bytes independent of jobs" (at 1) (at 4);
  (* A flat dump of the same rows agrees on every count; float moments may
     differ in the last ulp (sequential fold vs shard-partial merge), so
     only the counting fields are compared across source kinds. *)
  let flat = Filename.concat (Filename.get_temp_dir_name ()) "nab_store_test_flat.jsonl" in
  let oc = open_out flat in
  Store.fold ~dir ~init:() ~f:(fun () line ->
      output_string oc line;
      output_char oc '\n');
  close_out oc;
  match Analyze.of_source (Analyze.Jsonl flat) with
  | Error e -> Alcotest.fail e
  | Ok t ->
      let counts json =
        ( Json.member "rows" json,
          Json.member "outcomes" json,
          Json.member "dispute_hist" json,
          Json.member "dc_hist" json )
      in
      let store_json =
        match Analyze.of_source ~jobs:1 (Analyze.Store_dir dir) with
        | Ok t -> Analyze.to_json t
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "store and flat agree on all counts" true
        (counts store_json = counts (Analyze.to_json t))

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "torn tail recovery" `Quick test_store_torn_tail;
          Alcotest.test_case "salt mismatch restarts" `Quick test_store_salt_mismatch;
          Alcotest.test_case "corruption detected" `Quick test_store_corruption_detected;
        ] );
      ( "resume",
        [ Alcotest.test_case "interrupted+resumed == one-shot" `Slow test_resume_determinism ] );
      ( "streaming",
        [
          Alcotest.test_case "fold_jsonl == read_jsonl" `Quick test_fold_jsonl_matches_read;
          Alcotest.test_case "diff_jsonl self-empty" `Quick test_diff_jsonl_self_empty;
        ] );
      ( "plan-cache",
        [
          Alcotest.test_case "lru bound + evictions" `Quick test_plan_cache_lru;
          Alcotest.test_case "unbounded by default" `Quick test_plan_cache_unbounded_default;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "matches committed artifact" `Slow test_analyze_matches_committed;
          Alcotest.test_case "jobs-independent + flat==store" `Slow test_analyze_jobs_independent;
        ] );
    ]
