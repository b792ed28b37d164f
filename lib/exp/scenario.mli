(** Declarative experiment scenarios: one record that pins down an entire
    NAB run — topology family, adversary, protocol configuration, seed and
    the oracle checks to evaluate on it. Scenarios are data, not closures:
    they encode losslessly to {!Nab_obs.Json} trees (the campaign result
    store, baselines and shrinker repros are all scenario JSON), and the
    grid/sampler combinators below build whole campaigns out of them.

    Determinism: everything a scenario names is deterministic in its fields
    — graph generation, adversary behaviour, the input values of every
    instance. Two processes materializing the same scenario run the same
    bits, which is what makes the JSONL result store diffable and the
    shrinker's repros replayable.

    [nab_cli run] builds a scenario from its flags and executes it with
    {!Runner.execute}, so any scenario without disabled adversary hooks
    replays bit-for-bit under [nab_cli run -g @FILE ...] — see
    {!Shrink.cli_command}. *)

open Nab_graph
open Nab_core

(** Topology family: the {!Nab_graph.Gen} generators, reified so a scenario
    can be stored, compared and shrunk. [Explicit] carries a concrete
    vertex/edge list — what a scenario collapses to once the shrinker starts
    deleting edges. *)
type topo =
  | Complete of { n : int; cap : int }
  | Ring of { n : int; cap : int }
  | Chords of { n : int; cap : int; chord_cap : int }
  | Random_feasible of {
      n : int;
      f : int;
      p : float;
      min_cap : int;
      max_cap : int;
      gseed : int;
    }
  | Dumbbell of { clique : int; clique_cap : int; bridge_cap : int }
  | Star_mesh of { n : int; spoke_cap : int; mesh_cap : int }
  | Twin_cliques of { half : int; spoke_cap : int; intra_cap : int; cross_cap : int }
  | Hypercube of { dims : int; cap : int }
  | Torus of { rows : int; cols : int; cap : int }
  | Fig1
  | Fig2
  | Explicit of { vertices : int list; edges : (int * int * int) list }

type backend = Sync | Async of Nab_net.Async_sim.fault_spec | Socket
(** Which network backend the scenario runs on: the synchronous reference
    simulator (the default — all pre-existing scenarios), the
    event-driven {!Nab_net.Async_sim} with the given injected-fault spec,
    or the process-per-node {!Nab_net.Socket} backend (real sockets; the
    zero-fault differential gate holds its reports identical to {!Sync}).
    The backend is content: it is part of the derived id and the JSON
    codec, so async and socket runs are replayable and diffable like sync
    ones. *)

type adversary_spec = { adv : string; disabled : string list }
(** An adversary by name ({!Nab_core.Adversary.find} vocabulary, so
    ["chaos:SEED"] works) with a set of deviation hooks forced back to
    honest behaviour ({!Nab_core.Adversary.with_disabled_hooks}) — the
    shrinker's knob for minimizing an attack. *)

type t = {
  id : string;  (** stable identifier; derived from the content by {!make} *)
  topo : topo;
  adversary : adversary_spec;
  f : int;
  l_bits : int;
  m : int;
  seed : int;  (** config seed; also derives the per-instance inputs *)
  q : int;  (** instances to broadcast *)
  flag_backend : [ `Eig | `Phase_king ];
  checks : string list;  (** oracle names, evaluated in order (see {!Checker}) *)
  min_gap : float option;
      (** for the ["oblivious-gap"] oracle: require
          [throughput_lb >= min_gap * oblivious_throughput] *)
  stream : int option;
      (** [Some w]: run the q instances through the streaming session layer
          ({!Nab_core.Nab_stream}) with admission window [w] instead of
          serially — the id gains a ["+stream-wW"] suffix and the row's
          stats gain the stream totals (goodput, flag batches, rollbacks).
          Pair with the ["stream-equiv"] oracle to pin the schedule to the
          serial driver's decisions. *)
  backend : backend;  (** network backend; {!Sync} unless set explicitly *)
}

val invariant_checks : string list
(** The default oracle set: the protocol invariants every run must uphold
    whatever the adversary — ["agreement"], ["validity"], ["dc-budget"],
    ["honest-present"], ["theorem1-attempts"]. Cheap enough for sampled
    soaking; the graph-level theorem oracles (see {!Checker}) are opted
    into per scenario. *)

val make :
  ?id:string ->
  ?adversary:string ->
  ?disabled:string list ->
  ?f:int ->
  ?l_bits:int ->
  ?m:int ->
  ?seed:int ->
  ?q:int ->
  ?flag_backend:[ `Eig | `Phase_king ] ->
  ?checks:string list ->
  ?min_gap:float ->
  ?stream:int ->
  ?backend:backend ->
  topo ->
  unit ->
  t
(** Defaults: adversary ["none"] with nothing disabled, f = 1, L = 256,
    m = 16, seed = 7, q = 2, EIG flags, {!Checker.invariant_checks}. When
    [id] is omitted it is derived from the content (see {!derive_id}), so
    equal scenarios get equal ids. *)

val derive_id : t -> string
(** The canonical content-derived identifier; {!make} applies it, and the
    shrinker re-applies it after every transformation. Sync scenarios keep
    their historical ids; async ones append
    ["+async-" ^ ]{!Nab_net.Async_sim.spec_label}. *)

val with_backend : backend -> t -> t
(** Switch the backend and re-derive the id — how [campaign --backend
    async] lifts a sync scenario set onto the async backend. *)

val transport_factory : t -> Nab_net.Transport.factory
(** The {!Nab_net.Transport.factory} realizing {!t.backend} — what the
    runner passes to [Nab.run]. *)

(** {1 Command-line form of a backend} *)

type flags = {
  net : [ `Sync | `Async | `Socket ];  (** [--backend] *)
  latency : string;  (** [--latency] *)
  jitter : float;  (** [--jitter] *)
  reorder : string;  (** [--reorder] *)
  crash : string;  (** [--crash] *)
  fault_seed : int;  (** [--fault-seed] *)
}
(** The six backend flags shared by [nab_cli run] and [campaign], as
    given on the command line. *)

val default_flags : flags
(** The values of flags left unset: sync, latency ["zero"], no faults. *)

val backend_of_flags : flags -> (backend, string) result
(** The backend the flags select. Errors name the problem: fault flags
    without [--backend async] (the other backends would silently ignore
    them), or a fault spec that {!Nab_net.Async_sim.spec_of_flags}
    rejects. *)

val fault_flags : t -> flags option
(** The inverse of {!backend_of_flags}: the flags that select [s.backend],
    so [backend_of_flags (fault_flags s) = Ok s.backend] whenever the
    spec's times and probabilities survive [%g] printing (as every value
    the campaigns use does). [None] for partitioned async specs, which
    only scenario JSON can express. *)

val graph : t -> Digraph.t
(** Materialize the topology (deterministic; [Random_feasible] uses its own
    [gseed], independent of the scenario seed). *)

val config : t -> Nab.config
val adversary_t : t -> Adversary.t
(** Resolve the adversary spec; raises [Invalid_argument] on an unknown
    name or hook. Consults {!register_adversary} entries before the
    {!Nab_core.Adversary.find} zoo. *)

val inputs : t -> int -> Bitvec.t
(** The per-instance input values: [input_stream ~l_bits:s.l_bits
    ~seed:s.seed]. Each partial application [inputs s] is a fresh stream
    with its own memo; apply it once per run and reuse the closure (as
    {!Nab.run} and validity checking expect). *)

val input_stream : l_bits:int -> seed:int -> int -> Bitvec.t
(** The input derivation of every scenario run, [nab_cli run] included:
    instance k's L-bit input is drawn from the [(seed, 0x1ca11)] stream in
    first-call order ({!Nab_core.Bitvec.random_stream}). Benches that
    replay CLI seeds call it too. *)

val explicit : t -> t
(** Replace the topology by its materialized [Explicit] form (id
    re-derived) — the first step of edge-level shrinking. *)

val register_adversary : string -> Adversary.t -> unit
(** Extend the adversary vocabulary for this process (test harnesses inject
    deliberately-broken strategies this way). Registered names win over the
    zoo; they are {e not} replayable in a fresh process, which is why only
    tests use this. *)

(** {1 JSON codec} *)

val to_json : t -> Nab_obs.Json.t
val of_json : Nab_obs.Json.t -> (t, string) result
(** Lossless round-trip: [of_json (to_json s) = Ok s]. Every field is
    type-checked; the error names the offending field. The ["backend"]
    field is emitted only for non-sync scenarios (a fault-spec object for
    async, the string ["socket"] for the socket backend) and defaults to
    {!Sync} when absent, so pre-backend scenario JSON (committed
    baselines, repro bundles) encodes and decodes byte-identically. *)

val of_string : string -> (t, string) result

(** {1 Campaign combinators} *)

val grid :
  ?adversaries:string list ->
  ?fs:int list ->
  ?ls:int list ->
  ?ms:int list ->
  ?seeds:int list ->
  ?qs:int list ->
  ?flag_backends:[ `Eig | `Phase_king ] list ->
  ?checks:string list ->
  topo list ->
  t list
(** Cartesian product over every supplied axis (defaults are the {!make}
    singletons), in lexicographic axis order: topo outermost, then
    adversary, f, l, m, seed, q, backend. *)

val sample : trials:int -> seed:int -> t list
(** The randomized soak sampler, as data: [trials] scenarios drawn
    deterministically from [seed] — f in {1, 2}, n in [3f+1, 3f+3],
    complete or BB-feasible random topologies, the adversary zoo plus
    seeded chaos, L in {64..256}, q in {2..5}. Checks: {!invariant_checks}, plus — on
    f = 1 scenarios, where n <= 6 keeps the Appendix-E enumeration cheap —
    ["theorem3-ratio"] and ["oblivious-gap"], whose structured data feeds
    the capacity-ratio and gap tables of [campaign analyze]. *)
