(** Synchronous point-to-point network simulator with per-link capacity
    accounting — the paper's timing model made executable.

    The engine is a message fabric, not an inversion-of-control framework:
    each call to {!round} takes every node's outbox, delivers messages along
    existing directed links, and returns the inboxes for the next step. The
    protocol orchestration (who sends what, which nodes are faulty, what the
    adversary does) lives in the caller.

    Timing model: all links transmit in parallel; a round in which link e of
    capacity z_e carries b_e bits lasts [max_e b_e / z_e] time units (the
    paper's deterministic capacity model: z_e * tau bits in tau time).
    Rounds are grouped into named phases; for each phase both the wall-clock
    sum of round durations and the bottleneck (max) round duration are
    tracked. The bottleneck value is the steady-state per-instance cost under
    the paper's Figure-3 pipelining, where successive instances overlap with
    one round per hop.

    Implementation model: the accounting (phase accumulators, per-link
    totals, trace, observability points) and the compiled network index
    live in {!Ledger}; Sim adds synchronous delivery. {!round} runs on
    preallocated per-vertex scratch reset via touched lists, so
    steady-state rounds allocate only the inboxes they return. The
    observable semantics are identical to a naive per-round map-based
    fabric. *)

type 'm t

val create :
  ?obs:Nab_obs.ctx ->
  ?keep_events:bool ->
  Nab_graph.Digraph.t ->
  bits:('m -> int) ->
  'm t
(** A fresh simulator on the given network. [bits] gives the wire size of a
    message; it must be positive. Every message is delivered in the round
    that sends it: the paper assumes zero propagation delay and notes that
    relaxing this does not affect correctness (footnote 1, Appendix D).
    Lateness is modelled only by {!Async_sim}.

    [keep_events] (default [false]) retains the full delivery trace for
    {!events}/{!events_of_phase}. Retention is unbounded — memory grows
    with every delivered message — so it is off by default and switched on
    only by callers that read the trace back (e.g. dispute control drawing
    honest claims from it). Campaign-scale runs leave it off. Note this
    default changed: the fabric previously always retained events.

    [obs] (default {!Nab_obs.null}) receives, in scope ["sim"], one
    ["round"] point event per executed round (phase, round number, bits,
    duration) and — when the context was made with [~sample_messages:s] —
    every s-th delivered message as a ["msg"] event. All timestamps are
    simulated time, so traces are deterministic. Observation is independent
    of [keep_events]. *)

val graph : 'm t -> Nab_graph.Digraph.t

val obs : 'm t -> Nab_obs.ctx
(** The instrumentation context this simulator reports to; protocol layers
    running on the simulator emit their own spans through it. *)

val round : 'm t -> phase:string -> (int -> (int * 'm) list) -> int -> (int * 'm) list
(** [round sim ~phase outbox] delivers one synchronous round: [outbox v] is
    the list of [(destination, message)] pairs sent by node [v]. Messages on
    non-existent links are dropped (and counted in {!dropped}): a node —
    faulty or not — cannot invent links. The result maps each node to its
    inbox as [(sender, message)] pairs, sorted by sender. *)

val pending_count : 'm t -> int
(** Always 0: no message outlives the round that sends it. *)

val drain : 'm t -> phase:string -> int -> (int * 'm) list
(** Empty inboxes, without running a round: there is nothing in flight to
    deliver. *)

type phase_stat = Transport.phase_stat = {
  phase : string;
  rounds : int;
  wall : float; (** sum of round durations *)
  bottleneck : float; (** max round duration = pipelined per-instance cost *)
  bits_total : int;
  extra : float; (** analytic cost added via {!add_cost} *)
}
(** Equal to {!Transport.phase_stat} — [Sim.phase_stat] and the
    backend-neutral record are the same type, so timing consumers work
    unchanged against either. *)

type timing = Transport.timing = {
  wall : float;
      (** total wall time: sum over rounds of the round duration, plus all
          analytic {!add_cost} costs *)
  pipelined : float;
      (** sum over phases of (bottleneck + extra): the steady-state
          per-instance cost under Figure-3 pipelining *)
  phases : phase_stat list;  (** per-phase breakdown, in first-use order *)
}
(** Equal to {!Transport.timing}. *)

val timing : 'm t -> timing
(** The one timing accessor: wall clock, pipelined clock and the per-phase
    breakdown (including each phase's analytic [extra]) in a single
    consistent snapshot. *)

val add_cost : 'm t -> phase:string -> float -> unit
(** Account analytically-modelled time (e.g. a sub-protocol simulated at a
    coarser granularity) into a phase. *)

val link_bits : 'm t -> ((int * int) * int) list
(** Total bits carried per link over the whole run, sorted. *)

val dropped : 'm t -> int
(** Number of messages addressed to non-existent links. *)

val utilization : 'm t -> ((int * int) * float) list
(** Per-link utilisation over the whole run: bits carried divided by
    capacity x wall time, where wall time is [(timing t).wall] — the round
    durations {e plus} analytic {!add_cost} time, so a link that was busy
    during simulated rounds of a run dominated by analytic phases correctly
    shows a low utilisation. 1.0 means the link was saturated for the
    entire run. Sorted by link.

    Every link that carried bits always appears: in the degenerate case
    where bits were carried but no time has elapsed (possible when a
    caller's accounting is purely analytic), each such link reports 0.0
    rather than the whole table being empty. [[]] therefore means "no link
    carried any traffic". *)

type 'm event = 'm Ledger.event = {
  round_no : int;
  ev_phase : string;
  src : int;
  dst : int;
  msg : 'm;
}

val events : 'm t -> 'm event list
(** Full delivery trace in chronological order — the ground truth that
    honest nodes' dispute-control claims are drawn from. Empty unless the
    simulator was created with [~keep_events:true]. *)

val events_of_phase : 'm t -> string -> 'm event list
(** The trace restricted to one phase; empty without [~keep_events:true]. *)

val keeps_events : 'm t -> bool
(** Whether this simulator retains its delivery trace ([keep_events]). *)

val rounds_run : 'm t -> int

val ledger : 'm t -> 'm Ledger.t
(** The simulator's ledger, for backends that take their accounting from
    a simulator they drive (the socket backend's prediction). *)

val transport : Packet.t t -> Transport.t
(** Pack a {!Packet.t}-carrying simulator as a backend-neutral
    {!Transport.t}. The packed value shares state with the simulator:
    protocols drive it through {!Transport.round} while the caller keeps
    the concrete handle for anything simulator-specific. *)

val default_factory : Transport.factory
(** The synchronous reference {!Transport.factory}: each call creates a
    fresh {!create}d simulator over the given graph with
    [~bits:Packet.bits] and packs it. It is the single shared value behind
    every driver-level [?transport] default ([Nab.create_session],
    [Nab_stream.create], the CLIs), so the no-argument
    backend choice lives in exactly one place. *)
