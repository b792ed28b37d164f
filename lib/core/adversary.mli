(** Byzantine adversary strategies. The adversary controls a fixed set of up
    to f nodes for the whole multi-instance run (the paper's fault model),
    knows the full algorithm, topology and inputs, and supplies deviation
    hooks for every protocol step. Each strategy is deterministic given the
    run seed, so experiments are reproducible. *)

open Nab_graph
open Nab_classic

type ctx = {
  instance : int;  (** NAB instance number k (1-based) *)
  gk : Digraph.t;
  trees : Arborescence.tree list;
  coding : Coding.t;
  source : int;
  f : int;
  value_bits : int;
  rng : Random.State.t;  (** per-instance, seeded deterministically *)
}

type t = {
  name : string;
  pick_faulty : g:Digraph.t -> source:int -> f:int -> Vset.t;
      (** Chooses the corrupted set once, on G_1. *)
  phase1 : ctx -> Phase1.adversary;
  ec : ctx -> Equality_check.adversary;
  flag_eig : ctx -> Eig.adversary;  (** step-2.2 flag broadcast deviations *)
  dc_claims : ctx -> Dispute.claims_adversary;
  dc_input : ctx -> (Bitvec.t -> Bitvec.t) option;
      (** how a faulty source lies about its input during dispute control *)
  dc_eig : ctx -> Eig.adversary;
  reliable : ctx -> Reliable.hooks;  (** path-level corruption *)
}

val adaptive : g:Digraph.t -> source:int -> f:int -> Vset.t
(** Worst-case placement: greedily corrupt the non-source node whose
    worst-case exclusion hurts gamma the most (ties to the largest id) —
    i.e. the node whose removal of all incident edges minimises the source
    broadcast min-cut. The paper's adversary knows the topology; this picker
    uses that knowledge. *)

val none : t  (** no faulty nodes at all *)

val dormant : t  (** f faulty nodes that never deviate *)

val crash : t
(** Faulty nodes go silent in every phase and claim nothing in DC. *)

val phase1_corrupt : t
(** Faulty relays flip bits of the slice they forward on the first tree they
    relay for, to their first child only — the minimal Phase-1 attack. *)

val source_equivocate : t
(** The (faulty) source sends different values down different trees'
    subtrees; other faulty nodes stay dormant. *)

val ec_liar : t
(** Faulty nodes send corrupted coded symbols in the Equality Check,
    manufacturing MISMATCH flags at their honest neighbours. *)

val false_flag : t
(** Faulty nodes announce MISMATCH although everything matched — the purely
    disruptive attack whose cost the dispute-control budget f(f+1) bounds. *)

val stealthy : t
(** The budget-exhausting attacker: in each instance it corrupts its
    equality-check traffic towards exactly one honest neighbour (rotating
    victims across instances) and lies consistently in dispute control, so
    each DC only records one new dispute pair instead of convicting it.
    It survives f distinct disputes before the pigeonhole excludes it —
    driving the dispute-control count to its f(f+1) ceiling. *)

val dc_frame : t
(** Behaves like {!ec_liar} in-band, then lies in dispute control: rewrites
    its claimed receptions from its lowest-id honest neighbour, trying to
    frame it. Dispute control must blame the pair, never convict the honest
    node alone. *)

val garbage : seed:int -> t
(** Randomised corruption of every hook (deterministic in [seed]). *)

val chaos : seed:int -> t
(** {!garbage} plus random dispute-control claim tampering (omissions and
    corruptions) and packet-level attacks in the reliable-routing layer
    (drops and payload flips while relaying). The broadest attack surface in
    the zoo; fuzz tests sweep its seed. *)

val all : (string * t) list
(** The zoo, for table-driven tests and benchmarks ([garbage] at seed 42).
    The randomized entries ([garbage], [chaos]) carry a persistent
    per-instance RNG stream: one value is reproducible for one run; reusing
    it replays differently. Resolve via {!find} when a strategy may run more
    than once per process. *)

val find : string -> t option
(** Resolve a strategy by name: the {!all} zoo, plus the seeded spellings
    ["chaos:SEED"] and ["garbage:SEED"] (the returned strategy keeps the
    full spelling as its [name], so reports stay self-describing). [None]
    for anything else. Every call returns a strategy with fresh internal
    state, so repeated runs resolved through [find] replay identically —
    campaign rows stay byte-identical however often (and on however many
    domains) a scenario is re-run. *)

val hook_names : string list
(** The per-step deviation hooks of {!t}, by name: ["phase1"], ["ec"],
    ["flag-eig"], ["dc-claims"], ["dc-input"], ["dc-eig"], ["reliable"]
    (everything except [pick_faulty], which chooses the corrupted set rather
    than a deviation). The vocabulary {!with_disabled_hooks} accepts. *)

val with_disabled_hooks : string list -> t -> t
(** Replace the named hooks with their honest behaviour, leaving the
    corrupted-set choice and the other hooks untouched — how the campaign
    shrinker minimizes an attack to the hooks that actually matter. Raises
    [Invalid_argument] on a name outside {!hook_names}. *)
