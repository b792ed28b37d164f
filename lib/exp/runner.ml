open Nab_graph
open Nab_core
module Json = Nab_obs.Json

type outcome = Pass | Violation | Error of string

type row = {
  scenario : Scenario.t;
  outcome : outcome;
  checks : Checker.outcome list;
  stats : (string * Json.t) list;
}

let stats_of ~g (report : Nab.run_report) =
  let mismatches =
    List.length (List.filter (fun (i : Nab.instance_report) -> i.Nab.mismatch) report.Nab.instances)
  in
  let attempts =
    List.fold_left
      (fun a (i : Nab.instance_report) -> a + i.Nab.coding_attempts)
      0 report.Nab.instances
  in
  [
    ("n", Json.Int (Digraph.num_vertices g));
    ("edges", Json.Int (Digraph.num_edges g));
    ("faulty", Json.List (List.map (fun v -> Json.Int v) (Vset.elements report.Nab.faulty)));
    ("dc_count", Json.Int report.Nab.dc_count);
    ("disputes", Json.Int (List.length report.Nab.disputes));
    ("mismatches", Json.Int mismatches);
    ("coding_attempts", Json.Int attempts);
    ("throughput_wall", Json.float report.Nab.throughput_wall);
    ("throughput_pipelined", Json.float report.Nab.throughput_pipelined);
  ]

type execution = {
  g : Digraph.t;
  inputs : int -> Bitvec.t;
  report : Nab.run_report;
  stream : Nab_stream.report option;
}

let execute ?obs ?flag_batch s =
  let g = Scenario.graph s in
  let config = Scenario.config s in
  let adversary = Scenario.adversary_t s in
  let inputs = Scenario.inputs s in
  let transport = Scenario.transport_factory s in
  let q = s.Scenario.q in
  match s.Scenario.stream with
  | None ->
      let report = Nab.run ?obs ~transport ~g ~config ~adversary ~inputs ~q () in
      { g; inputs; report; stream = None }
  | Some window ->
      let r =
        Nab_stream.run ?obs ~transport ~window ?flag_batch ~g ~config ~adversary ~inputs ~q ()
      in
      { g; inputs; report = r.Nab_stream.run; stream = Some r }

let stream_stats = function
  | None -> []
  | Some (r : Nab_stream.report) ->
      [
        ("stream_wall", Json.float r.Nab_stream.wall);
        ("stream_goodput", Json.float r.Nab_stream.goodput);
        ("stream_flag_batches", Json.Int r.Nab_stream.flag_batches);
        ("stream_rollbacks", Json.Int r.Nab_stream.rollbacks);
      ]

let run_scenario scenario =
  match
    let e = execute scenario in
    let ctx = { Checker.scenario; g = e.g; report = e.report; inputs = e.inputs } in
    (e, Checker.evaluate ctx ~names:scenario.Scenario.checks)
  with
  | e, checks ->
      let outcome =
        if List.for_all (fun (c : Checker.outcome) -> c.Checker.ok) checks then Pass
        else Violation
      in
      { scenario; outcome; checks; stats = stats_of ~g:e.g e.report @ stream_stats e.stream }
  | exception e -> { scenario; outcome = Error (Printexc.to_string e); checks = []; stats = [] }

(* Fixed chunk size: the fan-out batches (and hence the order in which
   [on_row] observes results) must not depend on the job count, or the
   streamed artifact would not be byte-identical across --jobs values.

   Scenarios sharing a topology also share its planning implicitly: Nab,
   Params and Capacity serve plans/star-quantities/cut-witnesses from
   process-wide single-flight Plan_caches, so a campaign plans each
   distinct (graph, source, f, ...) once no matter how many scenarios (or
   pool domains) touch it. Rows are unaffected by cache temperature —
   per-session counters are emitted on session-local misses. *)
let chunk_size = 8

let rec take_drop k = function
  | [] -> ([], [])
  | l when k = 0 -> ([], l)
  | x :: tl ->
      let a, b = take_drop (k - 1) tl in
      (x :: a, b)

let run_campaign ?jobs ?(on_row = fun _ _ -> ()) scenarios =
  let rec go i acc rest =
    match rest with
    | [] -> List.rev acc
    | _ ->
        let batch, rest = take_drop chunk_size rest in
        let rows = Nab_util.Pool.map ?jobs run_scenario batch in
        List.iteri (fun j row -> on_row (i + j) row) rows;
        go (i + List.length rows) (List.rev_append rows acc) rest
  in
  go 0 [] scenarios

let violations rows = List.filter (fun r -> r.outcome <> Pass) rows

(* ---- store-backed (resumable) campaigns ---- *)

type store_summary = {
  requested : int;
  skipped : int;
  ran : int;
  run_violations : int;
  complete : bool;
}

let default_commit_rows = 256

(* ---- JSONL ---- *)

let outcome_string = function Pass -> "pass" | Violation -> "violation" | Error _ -> "error"

(* "data" is emitted only when an oracle produced some, so rows from
   data-free oracles keep their historical bytes. *)
let check_to_json (c : Checker.outcome) =
  Json.Obj
    ([
       ("name", Json.Str c.Checker.name);
       ("ok", Json.Bool c.Checker.ok);
       ("detail", Json.Str c.Checker.detail);
     ]
    @ match c.Checker.data with [] -> [] | d -> [ ("data", Json.Obj d) ])

let row_to_json r : Json.t =
  Json.Obj
    ([ ("id", Json.Str r.scenario.Scenario.id); ("outcome", Json.Str (outcome_string r.outcome)) ]
    @ (match r.outcome with Error e -> [ ("error", Json.Str e) ] | _ -> [])
    @ [
        ("checks", Json.List (List.map check_to_json r.checks));
        ("stats", Json.Obj r.stats);
        ("scenario", Scenario.to_json r.scenario);
      ])

let ( let* ) = Result.bind

let row_of_json j =
  let str name obj =
    match Json.member name obj with
    | Some v -> (
        match Json.get_string v with
        | Some s -> Ok s
        | None -> Result.Error (Printf.sprintf "field %S is not a string" name))
    | None -> Result.Error (Printf.sprintf "missing field %S" name)
  in
  let* id = str "id" j in
  let* outcome_s = str "outcome" j in
  let* outcome =
    match outcome_s with
    | "pass" -> Ok Pass
    | "violation" -> Ok Violation
    | "error" ->
        let* e = str "error" j in
        Ok (Error e)
    | other -> Result.Error (Printf.sprintf "unknown outcome %S" other)
  in
  let* checks_j =
    match Json.member "checks" j with
    | Some v -> (
        match Json.get_list v with
        | Some l -> Ok l
        | None -> Result.Error "field \"checks\" is not a list")
    | None -> Result.Error "missing field \"checks\""
  in
  let* checks =
    List.fold_right
      (fun c acc ->
        let* acc = acc in
        let* name = str "name" c in
        let* detail = str "detail" c in
        let* ok =
          match Json.member "ok" c with
          | Some v -> (
              match Json.get_bool v with
              | Some b -> Ok b
              | None -> Result.Error "check \"ok\" is not a bool")
          | None -> Result.Error "check missing \"ok\""
        in
        let* data =
          match Json.member "data" c with
          | None -> Ok []
          | Some (Json.Obj fields) -> Ok fields
          | Some _ -> Result.Error "check \"data\" is not an object"
        in
        Ok ({ Checker.name; ok; detail; data } :: acc))
      checks_j (Ok [])
  in
  let* stats =
    match Json.member "stats" j with
    | Some (Json.Obj fields) -> Ok fields
    | Some _ -> Result.Error "field \"stats\" is not an object"
    | None -> Result.Error "missing field \"stats\""
  in
  let* scenario_j =
    match Json.member "scenario" j with
    | Some v -> Ok v
    | None -> Result.Error "missing field \"scenario\""
  in
  let* scenario = Scenario.of_json scenario_j in
  if scenario.Scenario.id <> id then
    Result.Error (Printf.sprintf "row id %S does not match its scenario id %S" id scenario.Scenario.id)
  else Ok { scenario; outcome; checks; stats }

let write_jsonl oc rows =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.clear buf;
      Json.to_buffer buf (row_to_json r);
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf)
    rows;
  flush oc

(* Streaming: one parsed row in memory at a time, so baseline checks and
   [campaign analyze] work on flat files of any size. *)
let fold_jsonl path ~init ~f =
  match open_in path with
  | exception Sys_error e -> Result.Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go lineno acc =
            match input_line ic with
            | exception End_of_file -> Ok acc
            | "" -> go (lineno + 1) acc
            | line -> (
                match
                  let* j = Json.of_string line in
                  row_of_json j
                with
                | Ok row -> go (lineno + 1) (f acc row)
                | Result.Error e -> Result.Error (Printf.sprintf "%s:%d: %s" path lineno e))
          in
          go 1 init)

let read_jsonl path =
  Result.map List.rev (fold_jsonl path ~init:[] ~f:(fun acc row -> row :: acc))

(* ---- store-backed execution ---- *)

(* Dedupe by id (ids are content-derived, so equal ids mean equal
   scenarios) — the store holds one row per id. *)
let distinct scenarios =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun s ->
      let id = s.Scenario.id in
      if Hashtbl.mem seen id then false
      else begin
        Hashtbl.replace seen id ();
        true
      end)
    scenarios

(* The resume check: anything already in the store is skipped. *)
let pending ~store scenarios =
  List.filter (fun s -> not (Store.mem store s.Scenario.id)) (distinct scenarios)

let run_campaign_store ?jobs ?limit ?(commit_rows = default_commit_rows)
    ?(on_row = fun _ _ -> ()) ~store scenarios =
  let commit_rows = max 1 commit_rows in
  let requested = List.length (distinct scenarios) in
  let todo = pending ~store scenarios in
  let skipped = requested - List.length todo in
  let todo, truncated =
    match limit with
    | None -> (todo, false)
    | Some l ->
        let keep, rest = take_drop (max 0 l) todo in
        (keep, rest <> [])
  in
  let ran = ref 0 and run_violations = ref 0 and uncommitted = ref 0 in
  let rec go i rest =
    match rest with
    | [] -> ()
    | _ ->
        let batch, rest = take_drop chunk_size rest in
        let rows = Nab_util.Pool.map ?jobs run_scenario batch in
        List.iteri
          (fun j row ->
            Store.add store ~id:row.scenario.Scenario.id
              ~line:(Json.to_string (row_to_json row));
            incr ran;
            if row.outcome <> Pass then incr run_violations;
            incr uncommitted;
            if !uncommitted >= commit_rows then begin
              Store.commit store;
              uncommitted := 0
            end;
            on_row (i + j) row)
          rows;
        go (i + List.length rows) rest
  in
  go 0 todo;
  Store.commit store;
  {
    requested;
    skipped;
    ran = !ran;
    run_violations = !run_violations;
    complete = not truncated;
  }

(* ---- diff ---- *)

type diff = {
  missing : string list;
  added : string list;
  changed : (string * string) list;
}

let row_change ~base ~cur =
  let part name f =
    if f base = f cur then None
    else
      Some
        (Printf.sprintf "%s: %s -> %s" name
           (Json.to_string (f base))
           (Json.to_string (f cur)))
  in
  let reasons =
    List.filter_map Fun.id
      [
        part "outcome" (fun r ->
            Json.Str
              (outcome_string r.outcome
              ^ match r.outcome with Error e -> ": " ^ e | _ -> ""));
        part "checks" (fun r -> Json.List (List.map check_to_json r.checks));
        part "stats" (fun r -> Json.Obj r.stats);
        part "scenario" (fun r -> Scenario.to_json r.scenario);
      ]
  in
  if reasons = [] then None else Some (String.concat "; " reasons)

let diff_rows ~baseline ~current =
  let index rows =
    let tbl = Hashtbl.create (List.length rows) in
    List.iter (fun r -> Hashtbl.replace tbl r.scenario.Scenario.id r) rows;
    tbl
  in
  let base_tbl = index baseline and cur_tbl = index current in
  let missing =
    List.filter_map
      (fun r ->
        let id = r.scenario.Scenario.id in
        if Hashtbl.mem cur_tbl id then None else Some id)
      baseline
  in
  let added =
    List.filter_map
      (fun r ->
        let id = r.scenario.Scenario.id in
        if Hashtbl.mem base_tbl id then None else Some id)
      current
  in
  let changed =
    List.filter_map
      (fun cur ->
        let id = cur.scenario.Scenario.id in
        match Hashtbl.find_opt base_tbl id with
        | None -> None
        | Some base ->
            Option.map (fun why -> (id, why)) (row_change ~base ~cur))
      current
  in
  { missing; added; changed }

(* Streaming variant against an on-disk baseline: one pass over the
   baseline builds an id index (the baseline side stays resident — it is
   the small committed artifact), then the current rows stream through
   [row] one at a time. [diff_stream] returns the finisher so callers can
   feed rows from any source (a list, fold_jsonl, a store fold). *)
let diff_stream ~baseline_path =
  let* indexed =
    fold_jsonl baseline_path ~init:[] ~f:(fun acc r ->
        (r.scenario.Scenario.id, r) :: acc)
  in
  let base_order = List.rev_map fst indexed in
  let base_tbl = Hashtbl.create (List.length indexed) in
  List.iter (fun (id, r) -> Hashtbl.replace base_tbl id r) indexed;
  let matched = Hashtbl.create 64 in
  let added = ref [] and changed = ref [] in
  let row cur =
    let id = cur.scenario.Scenario.id in
    match Hashtbl.find_opt base_tbl id with
    | None -> added := id :: !added
    | Some base ->
        Hashtbl.replace matched id ();
        Option.iter
          (fun why -> changed := (id, why) :: !changed)
          (row_change ~base ~cur)
  in
  let finish () =
    {
      missing = List.filter (fun id -> not (Hashtbl.mem matched id)) base_order;
      added = List.rev !added;
      changed = List.rev !changed;
    }
  in
  Ok (row, finish)

let diff_jsonl ~baseline_path ~current_path =
  let* row, finish = diff_stream ~baseline_path in
  let* () = fold_jsonl current_path ~init:() ~f:(fun () r -> row r) in
  Ok (finish ())

let diff_is_empty d = d.missing = [] && d.added = [] && d.changed = []

let pp_diff fmt d =
  if diff_is_empty d then Format.fprintf fmt "no differences@."
  else begin
    List.iter (fun id -> Format.fprintf fmt "- %s (baseline only)@." id) d.missing;
    List.iter (fun id -> Format.fprintf fmt "+ %s (current only)@." id) d.added;
    List.iter (fun (id, why) -> Format.fprintf fmt "~ %s: %s@." id why) d.changed
  end
