(** Streaming session layer: many broadcast instances multiplexed over one
    shared fabric.

    {!Nab.session_broadcast} runs one instance at a time on a private
    transport: every value pays the full pipeline fill (Phase-1 depth
    rounds) plus a whole flag-broadcast round trip. This module keeps a
    window of instances in flight on a {e single} transport, schedules
    their traffic per link with {!Nab_net.Link_sched} (weighted
    deficit-round-robin), and batches the step-2.2 flag broadcasts of
    consecutive instances into one {!Nab_classic.Eig} execution — so the
    steady-state cost per value approaches the coding cost alone and
    goodput approaches the Theorem-3 capacity bound as the queue grows.

    {2 Equivalence with the serial driver}

    At admission each instance's full protocol transcript — every Phase-1
    and equality-check send, the assembled values, MISMATCH flags and
    dispute-control claim lists — is computed eagerly on the current G_k
    by the serial driver's own steps ({!Phase1.step},
    {!Equality_check.send}) under the hooks of the same {!Nab.instance},
    and flags and dispute control run through {!Nab.agree_flags} and
    {!Nab.dispute_control}. The data plane then only decides {e when}
    those bits move: a node's sends on a tree are released by the
    delivery of its parent-edge slice (suppressed sends settle instantly),
    so causality matches the serial rounds while unrelated links carry
    other instances' traffic.

    Consequently, for adversaries whose hooks are deterministic functions
    of their arguments and the per-instance RNG (every built-in
    {!Adversary} except the [garbage]/[chaos] family, which draw from a
    persistent per-instance stream), decisions, disputes and graph
    evolution are byte-identical to running {!Nab.session_broadcast} q
    times — [bench/stream.exe --check] holds this differentially.

    When dispute control of instance k yields new disputes, every
    admitted-but-unfinalized instance (> k) rolls back: its queued traffic
    is flushed, in-flight packets are orphaned by an epoch bump, and its
    transcript is recomputed on G_(k+1) — so the dispute is charged once
    to the session, not once per in-flight instance, and the f(f+1)
    dispute-control budget is preserved.

    Flag batching trades fidelity for amortization: with [flag_batch > 1]
    the flags of up to that many consecutive instances travel as one
    {!Nab_net.Wire.Batch} payload through a single EIG/Phase-King
    execution whose per-instance hooks are those of the batch's first
    instance. Adversaries that tamper with the flag broadcast itself
    ([false-flag], [dc-frame]) therefore need [flag_batch = 1] for exact
    serial equivalence; data-plane adversaries are unaffected.

    The stream requires a lossless transport (latency/jitter/reordering
    faults are fine; message-dropping fault specs would strand a
    transcript's delivery and raise [Failure] after an idle limit). *)

open Nab_graph
open Nab_net

type t

val create :
  ?obs:Nab_obs.ctx ->
  ?transport:Transport.factory ->
  ?window:int ->
  ?flag_batch:int ->
  ?quantum:float ->
  g:Digraph.t ->
  config:Nab.config ->
  adversary:Adversary.t ->
  unit ->
  t
(** A streaming session over one shared transport (default
    {!Sim.default_factory}; the same network/config validation as
    {!Nab.create_session}). [window] (default 32) bounds the instances
    admitted concurrently — submissions beyond it queue and admit as
    earlier instances finalize (backpressure). [flag_batch] (default
    [window/2]) caps how many consecutive instances share one flag
    broadcast — the stream accumulates data-complete instances up to that
    many before running the shared EIG, firing early only when nothing
    else can progress; 1 gives full per-instance serial fidelity.
    [quantum] is the
    {!Link_sched} round budget in simulated time units; the default is one
    instance's bottleneck round duration under the initial plan (largest
    per-link Phase-1 slice or equality-check payload over capacity), which
    mimics the serial cadence per link while interleaving instances. *)

val submit : t -> ?source:int -> Bitvec.t -> int
(** Submit a value for broadcast; returns the instance id it will run as
    (dense, increasing, continuing the session's numbering). [source]
    defaults to the session config's source; any vertex of the network
    may originate (per-(G_k, source) plans are cached). Inputs longer
    than L are rejected. The call admits and pumps nothing beyond the
    admission window — call {!drain} to finish. *)

val drain : t -> unit
(** Pump the data plane ({!Link_sched.select} rounds through the shared
    transport), flag batches and dispute control until every submitted
    instance has finalized. *)

val pending : t -> int
(** Instances submitted but not yet finalized (queued + in flight). *)

val session : t -> Nab.session
(** The underlying resumable session: graph/dispute state and finished
    instance reports are readable through the {!Nab} accessors at any
    point; interleaving {!Nab.session_broadcast} calls with an undrained
    stream is not supported. *)

val wall : t -> float
(** Simulated time elapsed on the shared fabric so far. *)

val close : t -> unit
(** Release the shared transport's external resources
    ({!Nab_net.Transport.close}); call when done with a hand-driven
    session. {!run} closes its own. *)

type report = {
  run : Nab.run_report;  (** the session aggregate, ids in stream order *)
  wall : float;  (** total simulated time on the shared fabric *)
  goodput : float;  (** L x delivered / wall — the amortized rate *)
  delivered : int;
  data_rounds : int;  (** scheduler rounds the data plane consumed *)
  flag_batches : int;  (** EIG/Phase-King executions for step 2.2 *)
  rollbacks : int;  (** instance relaunches caused by graph evolution *)
  window : int;
  flag_batch : int;
}
(** Note the per-instance [wall_time] inside [run] is the instance's
    {e latency} (finalize minus admit) on the shared fabric, and
    [phase_stats]/[utilization] are empty — per-instance attribution is
    meaningless when links carry many instances at once; the stream-level
    totals here replace them. *)

val report : t -> report
(** Aggregate everything finalized so far (also emits the
    [stream.goodput] gauge). Call after {!drain} for a complete run. *)

val run :
  ?obs:Nab_obs.ctx ->
  ?transport:Transport.factory ->
  ?window:int ->
  ?flag_batch:int ->
  ?quantum:float ->
  g:Digraph.t ->
  config:Nab.config ->
  adversary:Adversary.t ->
  inputs:(int -> Bitvec.t) ->
  q:int ->
  unit ->
  report
(** Batch convenience: {!create}, {!submit} [inputs k] for k = 1..q,
    {!drain}, {!report}. *)
