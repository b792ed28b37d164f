(** Event-driven asynchronous network backend with injectable faults — the
    second {!Transport} implementation, for studying how the paper's
    synchronous, capacity-aware protocols behave when the network stops
    honouring the synchronous model (cf. "Reliable Broadcast in Practical
    Networks": latency, jitter, reordering, crashes).

    The backend keeps the protocol-facing round structure of
    {!Transport.TRANSPORT} but runs an event loop underneath: every sent
    message becomes an event with an arrival time

    [arrival = send_round_end + latency + jitter + reorder_bump]

    held in a priority queue; a round delivers exactly the events whose
    arrival time has been reached when the round's transmission completes.
    With {!no_faults} every arrival lands at its own round's end, so the
    backend is decision-identical to the synchronous {!Sim} — the
    differential gate [bench/async.exe --check] and the campaign tier hold
    this. Under faults, messages slip into later rounds' inboxes (or are
    lost to crashes/partitions), which is precisely the stale-capacity
    stress the degradation benchmark measures.

    All randomness is drawn from one [Random.State] seeded by
    {!fault_spec.seed} in a fixed per-message order, so a run is a pure
    function of (graph, protocol, spec): replaying the same spec replays
    the same faults, byte for byte. *)

(** Per-message propagation latency, in simulated time units (the same
    units as round durations: one unit transmits one bit per unit
    capacity). *)
type latency =
  | Zero
  | Const of float  (** fixed latency on every delivery *)
  | Uniform of float * float  (** drawn uniformly from [\[lo, hi)] *)
  | Exp of float  (** exponential with the given mean *)

type partition = {
  cut : (int * int) list;  (** directed links severed while active *)
  from_t : float;
  until_t : float;  (** active window: [from_t <= now < until_t] *)
}

type fault_spec = {
  latency : latency;
  jitter : float;
      (** extra uniform [\[0, jitter)] delay per message; 0 disables *)
  reorder : float;
      (** probability a message is bumped by [reorder_delay], landing
          behind messages sent after it; 0 disables *)
  reorder_delay : float;
      (** bump magnitude in time units; 0 (the default) bumps by the
          sending round's own transmission time, pushing the message into
          a later round whatever the traffic scale *)
  crash : (int * float) list;
      (** [(node, t)]: from time [t] the node sends and receives nothing *)
  partitions : partition list;
  seed : int;  (** root of every random draw — the replay key *)
}

val no_faults : fault_spec
(** [Zero] latency, no jitter/reorder/crash/partition, seed 0 — the
    configuration under which the backend matches {!Sim} decisions. *)

val validate_spec : fault_spec -> (fault_spec, string) result
(** [Ok spec] when every field is in range, else [Error] naming the first
    field that is not: latency bounds (const >= 0, uniform
    0 <= lo <= hi, exp mean > 0), jitter >= 0, reorder within 0..1,
    reorder_delay >= 0, crash times >= 0, and each partition window with
    [from_t <= until_t]. The one range check every spec passes, whether
    it comes from {!spec_of_flags}, scenario JSON or {!create}. *)

type t

val create :
  ?obs:Nab_obs.ctx ->
  ?keep_events:bool ->
  ?spec:fault_spec ->
  Nab_graph.Digraph.t ->
  t
(** A fresh event-loop backend over the graph, carrying {!Packet.t}
    messages sized by {!Packet.bits}. [spec] defaults to {!no_faults};
    [obs]/[keep_events] as in {!Sim.create}. Raises [Invalid_argument]
    when {!validate_spec} rejects [spec], and naming the entry when
    [spec] crashes a node that is not a vertex of the graph or cuts a
    pair that is not a link of it. *)

val transport : t -> Transport.t
(** Pack for the protocol layers; shares state with the handle. *)

val factory : ?spec:fault_spec -> unit -> Transport.factory
(** The async {!Transport.factory}: one fresh backend per instance, all
    with the same fault spec (and therefore the same seed — instances are
    independently replayable). *)

val fault_drops : t -> int
(** Messages destroyed by injected faults: sends suppressed at crashed
    nodes, deliveries to crashed nodes, and traffic on partitioned links.
    Disjoint from {!Transport.dropped}, which keeps its meaning of
    "addressed to a link that never existed". *)

(** {1 Spec parsing and labels} — shared by [nab_cli]/[campaign] flags and
    scenario ids. *)

val latency_of_string : string -> (latency, string) result
(** ["zero"], ["const:T"], ["uniform:LO:HI"], ["exp:MEAN"]. *)

val latency_to_string : latency -> string
(** Inverse of {!latency_of_string}, canonical form ([%g] floats). *)

val crash_of_string : string -> ((int * float) list, string) result
(** Comma-separated ["NODE@T"] items, e.g. ["3@120,7@1.5e3"]; [""] is
    the empty list. *)

val crash_to_string : (int * float) list -> string

val spec_of_flags :
  latency:string ->
  jitter:float ->
  reorder:string ->
  crash:string ->
  seed:int ->
  (fault_spec, string) result
(** Assemble a spec from the CLI flag grammar shared by [nab_cli run] and
    [campaign run]: [latency] as in {!latency_of_string}, [reorder] as
    ["P"] or ["P:D"] (probability, optional bump magnitude), [crash] as in
    {!crash_of_string}. No partitions — those exist only in scenario
    JSON. The result is checked by {!validate_spec}. *)

val spec_label : fault_spec -> string
(** Compact deterministic rendering of the whole spec (fault fields in
    fixed order, defaults omitted) — the content that distinguishes async
    scenario ids. [spec_label no_faults = "zero"]. *)
