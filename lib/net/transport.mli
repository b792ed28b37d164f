(** The protocol/network boundary: a first-class [TRANSPORT] signature that
    every protocol layer ({!Nab_core.Phase1}, [Equality_check], [Dispute],
    [Nab], [Nab_stream] and the classic baselines) is written against, so a
    protocol run is parameterised by {e how} messages move — not hard-wired
    to the synchronous round simulator.

    Three backends implement it, all keeping their books in one
    {!Ledger}:

    - {!Sim} — the paper's synchronous capacity model, compiled flat core
      (the reference implementation; byte-identical to the pre-redesign
      behaviour); pack one with {!Sim.transport}.
    - {!Async_sim} — an in-process event-loop backend with injectable
      per-edge latency, jitter, reordering and crash/partition faults
      (seeded, deterministic replay); pack one with {!Async_sim.transport}.
    - {!Socket} — one OS process per node, moving wire bytes over real
      sockets; its accounting is that of a {!Sim} it drives as the
      prediction every round must match; pack one with
      {!Socket.transport}.

    The signature keeps the round-call shape of {!Sim.round} — protocols
    hand over every node's outbox and get the inboxes back — because the
    paper's algorithms are round-structured; an async backend decides
    {e when} each message arrives and which round's inbox it lands in, and
    the timing accessors report simulated time under that backend's clock.

    Values of the packed type {!t} are a backend instance paired with its
    operations (a first-class module), so heterogeneous backends flow
    through one [Transport.t] without functorising every protocol. *)

type phase_stat = {
  phase : string;
  rounds : int;
  wall : float;  (** sum of round durations *)
  bottleneck : float;  (** max round duration = pipelined per-instance cost *)
  bits_total : int;
  extra : float;  (** analytic cost added via [add_cost] *)
}

type timing = {
  wall : float;
      (** total simulated wall time: round durations plus analytic
          [add_cost] costs *)
  pipelined : float;
      (** sum over phases of (bottleneck + extra): steady-state
          per-instance cost under Figure-3 pipelining *)
  phases : phase_stat list;  (** per-phase breakdown, in first-use order *)
}

type event = {
  round_no : int;
  ev_phase : string;
  src : int;
  dst : int;
  msg : Packet.t;
}
(** One delivered message, as recorded when the backend keeps its delivery
    trace — the ground truth dispute control draws honest claims from. *)

(** Operations every backend provides. [t] is the backend's own handle
    type; protocols only ever see it packed inside {!type-t} below. *)
module type TRANSPORT = sig
  type t

  val graph : t -> Nab_graph.Digraph.t
  (** The network this backend delivers over: vertex ids, directed links
      and per-link capacities. *)

  val obs : t -> Nab_obs.ctx
  (** Instrumentation context; protocol layers emit their spans through
      it. *)

  val round :
    t -> phase:string -> (int -> (int * Packet.t) list) -> int -> (int * Packet.t) list
  (** [round h ~phase outbox] advances the backend by one protocol round:
      [outbox v] is what node [v] sends as [(destination, message)] pairs;
      the result maps each node to its inbox as [(sender, message)] pairs
      sorted by sender. Messages on non-existent links are dropped and
      counted in {!dropped}. A backend with latency ({!Async_sim}) may
      park messages in flight — they arrive in a later round's inbox. *)

  val pending_count : t -> int
  (** Messages accepted but not yet delivered (in flight). A protocol that
      stops calling {!round} while this is non-zero strands them — finish
      with {!drain} or assert 0. *)

  val drain : t -> phase:string -> int -> (int * Packet.t) list
  (** Run traffic-free rounds until nothing is in flight; returns the
      merged late arrivals per node, accounted to [phase]. *)

  val add_cost : t -> phase:string -> float -> unit
  (** Account analytically-modelled time into a phase. *)

  val timing : t -> timing
  val link_bits : t -> ((int * int) * int) list
  val dropped : t -> int
  val utilization : t -> ((int * int) * float) list

  val events_of_phase : t -> string -> event list
  (** Delivery trace restricted to one phase, chronological; empty unless
      the backend was created keeping events. *)

  val keeps_events : t -> bool
  val rounds_run : t -> int

  val close : t -> unit
  (** Release whatever the backend holds outside the OCaml heap — OS
      processes, sockets, file descriptors. Idempotent; a no-op for the
      in-process backends ({!Sim}, {!Async_sim}). Session drivers call it
      when an instance's transport goes out of scope, even on exceptions.
      After [close], {!round}, {!pending_count} and {!drain} are
      undefined (the socket backend raises); the accessors keep
      reporting the closed run. *)
end

type t = T : (module TRANSPORT with type t = 'a) * 'a -> t
(** A backend instance packed with its operations — the value protocols
    take as [~net]. *)

val pack : (module TRANSPORT with type t = 'a) -> 'a -> t

(** {1 Wrappers}

    Per-operation conveniences over the packed type, so protocol code reads
    [Transport.round net ~phase outbox] exactly like the old [Sim.round]. *)

val graph : t -> Nab_graph.Digraph.t
val obs : t -> Nab_obs.ctx
val round : t -> phase:string -> (int -> (int * Packet.t) list) -> int -> (int * Packet.t) list
val pending_count : t -> int
val drain : t -> phase:string -> int -> (int * Packet.t) list
val add_cost : t -> phase:string -> float -> unit
val timing : t -> timing
val link_bits : t -> ((int * int) * int) list
val dropped : t -> int
val utilization : t -> ((int * int) * float) list
val events_of_phase : t -> string -> event list
val keeps_events : t -> bool
val rounds_run : t -> int
val close : t -> unit

type factory = obs:Nab_obs.ctx -> keep_events:bool -> Nab_graph.Digraph.t -> t
(** How sessions create transports: {!Nab} takes a factory and
    instantiates one backend per broadcast instance over the session graph;
    [Nab_stream] instantiates one shared by all its instances.
    {!Sim.default_factory} is the default (synchronous)
    implementation; {!Async_sim.factory} the event-loop one. *)
