(** Failing-case minimization: given a scenario whose run violates an
    oracle (or crashes), greedily shrink it to a minimal reproducer that
    still fails the {e same} way, then emit a self-contained repro bundle.

    The shrinker explores one transformation at a time — fewer instances,
    a shorter value, fewer adversary hooks, smaller f, a smaller topology,
    then (after collapsing the family to an [Explicit] edge list) deleting
    vertices and individual edges — accepting a candidate only when its run
    reproduces the original violation key. Everything is deterministic, so
    the minimized scenario is stable across machines and job counts. *)

type result = {
  original : Scenario.t;
  minimized : Scenario.t;
  key : string;  (** the preserved violation key *)
  runs : int;  (** scenario executions spent, including the initial one *)
  row : Runner.row;  (** the minimized scenario's run *)
}

val violation_key : Runner.row -> string option
(** The identity of a failure: ["check:NAME"] for the first failing oracle,
    ["error:LINE"] (first line of the exception text) for a crashed run,
    [None] for a pass. *)

val shrink : ?max_runs:int -> Scenario.t -> result option
(** [None] when the scenario passes. [max_runs] (default 400) bounds the
    total number of candidate executions; the best scenario found within
    the budget is returned. *)

val cli_command : Scenario.t -> graph_file:string -> string option
(** The exact [nab_cli run] invocation replaying the scenario against the
    Graphfile export of its network — byte-for-byte the same run, because
    [nab_cli run] turns its flags back into a scenario and executes it with
    {!Runner.execute}; the backend flags are {!Scenario.fault_flags}.
    [None] when the scenario is not CLI-expressible (disabled adversary
    hooks, an adversary outside the {!Nab_core.Adversary.find} vocabulary,
    or a partitioned async spec). *)

val replay_command : scenario_file:string -> string
(** The [campaign.exe replay] invocation for the emitted scenario JSON —
    always available, including for registered test-only vocabulary. *)

val write_repro : dir:string -> result -> string list
(** Write the repro bundle into [dir] (created if missing) and return the
    paths written, in order:
    - [scenario.json] — the minimized scenario;
    - [network.graph] — its network as a {!Nab_graph.Graphfile} document;
    - [network.dot] — the same network as Graphviz DOT;
    - [README.md] — the violation key, the failing run's check table, and
      the copy-pasteable replay commands. *)
