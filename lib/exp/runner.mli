(** Campaign execution: run scenarios (in parallel on {!Nab_util.Pool}),
    fold each into a result row, and read/write/diff the JSONL result
    store.

    {2 Determinism}

    A row is a pure function of its scenario: graph generation, the run,
    the oracles and every recorded statistic are deterministic (simulated
    time and bit counts only — no wall clock), and {!run_campaign} keys
    results by input index with a fixed chunk size, so the JSONL artifact
    is byte-identical at any job count. That is the property CI enforces by
    diffing a [--jobs 4] run against [--jobs 1] and against the committed
    [CAMPAIGN_baseline.jsonl].

    {2 Result row schema (JSONL)}

    One JSON object per scenario, keys in this order:
    {v
    {"id":STR,
     "outcome":"pass"|"violation"|"error",
     "error":STR,                    // only when outcome = "error"
     "checks":[{"name":STR,"ok":BOOL,"detail":STR,"data":{..}?}..],
                                     // "data" only when the oracle
                                     // produced structured numbers
     "stats":{"n":INT,"edges":INT,"faulty":[INT..],"dc_count":INT,
              "disputes":INT,"mismatches":INT,"coding_attempts":INT,
              "throughput_wall":NUM,"throughput_pipelined":NUM},
     "scenario":{..}}                // the full Scenario.to_json record
    v}
    ["checks"]/["stats"] are empty when the run itself raised (outcome
    ["error"]); non-finite throughputs encode as strings per
    {!Nab_obs.Json}. *)

type outcome = Pass | Violation | Error of string

type row = {
  scenario : Scenario.t;
  outcome : outcome;
  checks : Checker.outcome list;
  stats : (string * Nab_obs.Json.t) list;
}

type execution = {
  g : Nab_graph.Digraph.t;  (** the materialized network *)
  inputs : int -> Nab_core.Bitvec.t;  (** the run's input stream, already drawn *)
  report : Nab_core.Nab.run_report;
  stream : Nab_core.Nab_stream.report option;  (** for streamed scenarios *)
}

val execute : ?obs:Nab_obs.ctx -> ?flag_batch:int -> Scenario.t -> execution
(** Materialize the scenario (graph, config, adversary, inputs, transport)
    and run it: serially through {!Nab_core.Nab.run}, or through
    {!Nab_core.Nab_stream.run} with window [w] when [s.stream = Some w]
    ([flag_batch] applies there only). Raises whatever the run raises.
    [nab_cli run] and {!run_scenario} both call this, which is why a
    campaign row replays exactly under its printed [nab_cli] command. *)

val run_scenario : Scenario.t -> row
(** {!execute}, then evaluate the scenario's oracles. Never raises: an
    exception from the run (e.g. an infeasible shrunk network) becomes
    [Error] with the exception text. *)

val run_campaign :
  ?jobs:int -> ?on_row:(int -> row -> unit) -> Scenario.t list -> row list
(** Run every scenario, fanning out over the pool in fixed chunks of 8 so
    [on_row] (progress reporting, streaming writers) fires in input order
    as chunks complete — results and callbacks are independent of [jobs]. *)

val violations : row list -> row list
(** Rows whose outcome is not [Pass]. *)

(** {1 Store-backed (resumable) campaigns} *)

type store_summary = {
  requested : int;  (** distinct scenario ids asked for *)
  skipped : int;  (** already present in the store (the resume/incremental win) *)
  ran : int;  (** actually executed this call *)
  run_violations : int;  (** non-[Pass] outcomes among the rows run this call *)
  complete : bool;  (** every requested scenario is now in the store
                        (false when [limit] truncated the run) *)
}

val default_commit_rows : int

val pending : store:Store.t -> Scenario.t list -> Scenario.t list
(** The scenarios {!run_campaign_store} would run without a [limit]:
    distinct by id, not yet in the store, in order. *)

val run_campaign_store :
  ?jobs:int ->
  ?limit:int ->
  ?commit_rows:int ->
  ?on_row:(int -> row -> unit) ->
  store:Store.t ->
  Scenario.t list ->
  store_summary
(** Run a campaign into a {!Store}: scenarios are deduplicated by id, those
    already present in the store are skipped without running (so a killed
    campaign resumes where its last commit left off, and an unchanged rerun
    is near-free), and the remainder executes in the same fixed chunks of 8
    as {!run_campaign} — dispatch order, and hence the committed store, is
    independent of [jobs]. Rows are committed every [commit_rows]
    (default {!default_commit_rows}) to bound both the replay window lost
    to a crash and the fsync overhead at soak scale. [limit] caps how many
    scenarios run this call (chunked soak dispatch / kill simulation);
    [on_row i row] fires in dispatch order with [i] counting executed rows
    from 0. Pending rows are committed before returning; the caller decides
    when to {!Store.seal}. *)

val fold_jsonl :
  string -> init:'a -> f:('a -> row -> 'a) -> ('a, string) result
(** Stream a result file row by row — constant memory in the file length.
    The error carries the 1-based line number. *)

(** {1 JSONL store} *)

val row_to_json : row -> Nab_obs.Json.t
val row_of_json : Nab_obs.Json.t -> (row, string) result

val write_jsonl : out_channel -> row list -> unit
(** One row per line, in order. *)

val read_jsonl : string -> (row list, string) result
(** [fold_jsonl] collecting every row — only for small files; streaming
    callers should fold instead. The error carries the 1-based line
    number. *)

(** {1 Baseline diff} *)

type diff = {
  missing : string list;  (** ids in the baseline only *)
  added : string list;  (** ids in the current run only *)
  changed : (string * string) list;  (** id, what changed *)
}

val diff_rows : baseline:row list -> current:row list -> diff
(** Match rows by scenario id (order-insensitive). A matched pair counts as
    changed when any of outcome, checks, stats or the scenario record
    itself differ; the description says which. *)

val diff_is_empty : diff -> bool
val pp_diff : Format.formatter -> diff -> unit

val diff_stream :
  baseline_path:string -> ((row -> unit) * (unit -> diff), string) result
(** Streaming diff against an on-disk baseline: reads the baseline once to
    index it by id, then returns [(feed, finish)] — call [feed] with each
    current row (from {!fold_jsonl}, a {!Store.fold}, or a live run) and
    [finish ()] for the {!diff}. Orderings match {!diff_rows}: [missing]
    in baseline order, [added]/[changed] in feed order. *)

val diff_jsonl :
  baseline_path:string -> current_path:string -> (diff, string) result
(** {!diff_stream} fed from a current-result file — the streaming
    replacement for [read_jsonl]-both-sides in [campaign diff] and the CI
    baseline gates. *)
