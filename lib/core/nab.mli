(** The NAB driver: repeated instances of the three-phase protocol with
    graph evolution (Section 2). Instance k runs on G_k; when dispute control
    fires it computes G_(k+1) by edge/vertex exclusion, otherwise
    G_(k+1) = G_k. The driver is an omniscient harness: it executes honest
    nodes faithfully, consults the adversary's hooks for faulty ones, and
    reads agreement-guaranteed quantities (e.g. the step-2.2 flags) from one
    fault-free vantage point — justified by the agreement properties that the
    tests verify directly. *)

open Nab_graph
open Nab_net

type config = {
  f : int;
  source : int;
  l_bits : int;  (** requested L; padded per instance to the divisibility the paper assumes *)
  m : int;  (** equality-check field degree (symbol width); L' is a multiple of rho * m *)
  seed : int;
  flag_backend : [ `Eig | `Phase_king ];  (** step-2.2 Broadcast_Default backend *)
}
(** The record type stays exposed for pattern-matching and field access;
    construct values with {!config} (or the {!with_f} family), which
    validates the fields up front instead of deep inside {!run}. *)

val config :
  ?f:int ->
  ?source:int ->
  ?l_bits:int ->
  ?m:int ->
  ?seed:int ->
  ?flag_backend:[ `Eig | `Phase_king ] ->
  unit ->
  config
(** The smart constructor: every omitted field takes its {!default_config}
    value. Raises [Invalid_argument] when [f < 0], [l_bits < 1], or [m] is
    outside 1..61 (the GF(2^m) degrees {!Nab_field.Gf2p} supports) — the
    graph-dependent requirements (source present, n >= 3f+1, connectivity)
    are still checked by {!create_session}, which is where the graph is
    first known. *)

val default_config : config
(** f = 1, source = 1, L = 1024, m = 16, seed = 7, EIG flags. *)

val with_f : int -> config -> config
(** Functional updaters with the same validation as {!config}. *)

val with_source : int -> config -> config
val with_l_bits : int -> config -> config
val with_m : int -> config -> config
val with_seed : int -> config -> config
val with_flag_backend : [ `Eig | `Phase_king ] -> config -> config

val validate_config : config -> config
(** [validate_config c] is [c] if it satisfies the {!config} constraints,
    and raises the same [Invalid_argument] otherwise — the check applied to
    every configuration entering {!create_session}, however it was built. *)

type instance_report = {
  k : int;
  value_bits : int;  (** padded L' *)
  gamma_k : int;
  rho_k : int;
  decisions : (int * Bitvec.t) list;  (** per node of G_k, truncated to L *)
  mismatch : bool;  (** some node announced MISMATCH in step 2.2 *)
  dc_run : bool;
  reduced_to_phase1 : bool;  (** the paper's >= f exclusions special case *)
  coding_attempts : int;
  wall_time : float;
  pipelined_time : float;
  phase_stats : Sim.phase_stat list;
  utilization : ((int * int) * float) list;
      (** per-link bits/(capacity x wall) over the whole instance *)
  new_disputes : Params.dispute list;
}

type run_report = {
  config : config;
  adversary_name : string;
  faulty : Vset.t;
  instances : instance_report list;
  dc_count : int;
  disputes : Params.dispute list;  (** accumulated *)
  final_graph : Digraph.t;
  total_wall : float;
  total_pipelined : float;
  throughput_wall : float;  (** L * Q / total wall time *)
  throughput_pipelined : float;  (** L * Q / total pipelined time — the paper's T *)
}

type graph_plan = {
  plan_gamma : int;  (** gamma_k: arborescences packed from the source *)
  plan_rho : int;  (** rho_k: equality-check code rate parameter *)
  plan_trees : Arborescence.tree list;
  plan_coding : Coding.t;
  plan_coding_attempts : int;  (** seeds tried until the matrix verified *)
}
(** The per-graph protocol structure of instance k — a deterministic
    function of (G_k, source, f, n, disputes, m, seed), independent of the
    input value. Immutable, safe to share across domains. *)

val plan :
  config:config ->
  total_n:int ->
  disputes:Params.dispute list ->
  Digraph.t ->
  graph_plan
(** The plan for a graph, served from a process-wide content-keyed
    {!Nab_util.Plan_cache} (key: {!Digraph.fingerprint} of G_k plus source,
    f, [total_n], [disputes], m, seed — [l_bits] and [flag_backend] do not
    affect the plan). Campaign runners hitting the same topology from many
    scenarios or pool domains plan it exactly once per process. Raises
    [Invalid_argument] when some node is unreachable from the source
    (gamma < 1) or the equality check is impossible (rho < 1). *)

type session
(** A long-lived broadcast session: the accumulated dispute state, excluded
    nodes and per-graph protocol plans (trees, verified coding matrices)
    that the paper's repeated executions carry from instance to instance.
    This is the primary API for applications that produce values over time;
    {!run} is the batch convenience wrapper. *)

val create_session :
  ?obs:Nab_obs.ctx ->
  ?transport:Transport.factory ->
  g:Digraph.t ->
  config:config ->
  adversary:Adversary.t ->
  unit ->
  session
(** Validates the configuration ({!validate_config}) and the network
    (n >= 3f+1, connectivity >= 2f+1, source present) and fixes the
    corrupted node set for the whole session.

    [transport] (default {!Sim.default_factory}) supplies the network backend:
    every instance broadcast creates one transport over the session graph
    through it. Pass {!Async_sim.factory} for the event-driven backend with
    injected faults; decisions under [Async_sim.no_faults] match the sync
    backend exactly (the differential gate in [bench/async.exe] holds this).

    [obs] (default {!Nab_obs.null}) observes every instance broadcast on
    the session: each instance's simulator reports its rounds and sampled
    messages to it, the protocol layers open spans on it, and the driver
    emits per-instance ["instance"] spans (scope ["nab"]), a
    ["dispute-control"] point event whenever Phase 3 fires, and counters —
    coding-matrix generation attempts, per-phase rounds/bits, per-link bits
    ([sim.link_bits.SRC->DST]), dispute-control runs. All quantities are
    logical (simulated time, bit counts), so fixed-seed artifacts are
    byte-identical at any [NAB_JOBS] value. *)

val session_broadcast : session -> Bitvec.t -> instance_report
(** Run the next NAB instance on the current G_k with the given L-bit input
    (shorter inputs are zero-padded; longer ones rejected). Updates the
    session's graph/dispute state when dispute control runs. *)

val session_graph : session -> Digraph.t
(** The current G_k. *)

val session_disputes : session -> Params.dispute list
val session_dc_count : session -> int
val session_faulty : session -> Vset.t
val session_instances : session -> instance_report list
val session_config : session -> config
val session_obs : session -> Nab_obs.ctx
val session_transport : session -> Transport.factory
val session_adversary : session -> Adversary.t
val session_total_n : session -> int

val session_physical_graph : session -> Digraph.t
(** The original G: the physical network every instance's transport is
    created over (disputed links still exist; Phases 1/2.1 restrict
    themselves to {!session_graph}). *)

val session_next_k : session -> int
(** The 1-based id the next broadcast instance will carry. *)

(** {2 Driver steps}

    {!session_broadcast} and {!Nab_stream} take every decision of an
    instance through the functions below, and through {!Phase1.step} and
    {!Equality_check.send} under the hooks an {!instance} carries. The two
    drivers differ only in where "what v received" comes from: the serial
    driver reads its transport's inbox round by round, the stream reads
    the transcript it computed at admission. The session record keeps the
    cross-instance state; its invariants are:

    - {!session_graph} is always [Params.apply_disputes] of the original
      graph under {!session_disputes} (G_k evolution, DC4);
    - {!session_disputes} only grows, is sorted and duplicate-free, and
      every growth step goes through {!dispute_control} (so
      {!session_dc_count} counts exactly the Phase-3 executions — the
      budget the f(f+1) theorem bounds);
    - plans served by {!session_plan_for} are cached per (G_k, source)
      and the [nab.plans_built] / [nab.coding_attempts] counters fire on
      first use only, whatever order instances complete in;
    - instance ids are dense and increasing: {!session_push_report} for
      instance k moves {!session_next_k} to k+1. *)

val padded_bits : l:int -> rho:int -> m:int -> int
(** L rounded up to a whole number of rho*m-bit equality-check units. *)

val session_plan_for : session -> source:int -> graph_plan
(** The plan of the current G_k for instances originating at [source]
    (the session-config source or any other submitting vertex), served
    from the session's per-graph table over the process-wide
    {!Plan_cache}. *)

val session_value_bits : session -> graph_plan -> int
(** {!padded_bits} of the session's L under the plan's rho. *)

val session_dc_apply : session -> unit
(** Recompute G_(k+1) from the accumulated disputes (DC4). *)

val session_push_report : session -> instance_report -> unit
(** Append a finished instance: advances {!session_next_k} past the
    report's [k] and emits the [nab.instances] counter. *)

type instance = private {
  ins_k : int;
  ins_source : int;
  ins_gk : Digraph.t;  (** G_k when the instance started *)
  ins_plan : graph_plan;
  ins_value_bits : int;  (** padded L' *)
  ins_value : Bitvec.t;  (** the source's input, padded to L' *)
  ins_actx : Adversary.ctx;  (** identically seeded under either driver *)
  ins_phase1 : Phase1.adversary;  (** the Phase-1 hook of this instance *)
  ins_ec : Equality_check.adversary;  (** the equality-check hook *)
  ins_reduced : bool;  (** >= f exclusions: Phase 1 alone is reliable *)
}
(** One instance's fixed inputs on the current G_k. *)

val session_instance : session -> k:int -> source:int -> Bitvec.t -> instance option
(** Start instance [k] from [source] with the given input (zero-padded
    to L; longer inputs raise [Invalid_argument]) on the current G_k.
    [None] when [source] has been excluded from G_k: every node then
    agrees on the default value. *)

val agree_flags :
  session ->
  instance ->
  net:Transport.t ->
  routing:Nab_classic.Routing.t ->
  phase:string ->
  inputs:(int * Wire.payload) list ->
  default:Wire.payload ->
  int -> Wire.payload option
(** Step 2.2: Broadcast_Default each node's flag payload among the nodes
    of G_k — by EIG, or by Phase-King when configured and n_k > 4 f_eff —
    under the instance's hooks. Returns what the lowest-id fault-free node
    decided for each sender; the caller decodes [Flag] or [Batch]. *)

val dispute_control :
  session ->
  instance ->
  net:Transport.t ->
  routing:Nab_classic.Routing.t ->
  flags:(int * bool) list ->
  ?claims_of:(int -> Wire.claim list) ->
  unit ->
  (int * Dispute.verdict) list * Params.dispute list
(** Phase 3 under the agreed [flags]: counts the run, executes
    {!Dispute.run} ([claims_of] as there), merges the fault-free vantage's
    verdict into the session's disputes, and emits the [nab.dc_runs] /
    [nab.disputes] counters and the ["dispute-control"] point event.
    Returns every node's verdict and the disputes new to the session. The
    caller applies them ({!session_dc_apply}) once its transport is quiet. *)

val instance_report :
  session ->
  k:int ->
  ?ins:instance ->
  ?dc:Params.dispute list ->
  ?decisions:(int * Bitvec.t) list ->
  ?net:Transport.t ->
  ?latency:float ->
  unit ->
  instance_report
(** The report of instance [k]. Without [ins] the source was excluded and
    every node of G_k decides the all-zero default. [dc] (the new
    disputes) marks an instance whose flags mismatched and that ran
    dispute control. [decisions] are truncated to L. Timing comes from
    [net] (whose per-link and per-phase totals are first rolled into the
    session's counters) or else is [latency] alone. *)

val session_report : session -> run_report
(** Aggregate everything broadcast so far. *)

val run :
  ?obs:Nab_obs.ctx ->
  ?transport:Transport.factory ->
  g:Digraph.t ->
  config:config ->
  adversary:Adversary.t ->
  inputs:(int -> Bitvec.t) ->
  q:int ->
  unit ->
  run_report
(** Execute [q] instances: [create_session], then [session_broadcast] on
    [inputs k] for k = 1..q (1-based), then [session_report]. Raises
    [Invalid_argument] when the network does not satisfy n >= 3f+1 and
    connectivity >= 2f+1, or the source is absent. *)

val fault_free_agree : run_report -> bool
(** Every instance: all fault-free nodes decided identical values. *)

val valid_outputs : run_report -> inputs:(int -> Bitvec.t) -> bool
(** Every instance with a fault-free source: fault-free decisions equal the
    input (validity). Vacuously true for instances whose source is faulty. *)
