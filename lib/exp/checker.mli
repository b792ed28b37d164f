(** Per-run oracles: the mechanical checks a campaign evaluates on every
    scenario, each mapping a completed run to pass/fail plus a one-line
    diagnostic. Scenarios name the oracles they want ({!Scenario.checks});
    the first failing oracle is the run's {e violation key}, which is what
    the shrinker preserves while minimizing.

    Two tiers:
    - the {e invariant} oracles ({!Scenario.invariant_checks}) hold for
      every adversary and cost nothing beyond the run itself;
    - the {e theorem} oracles re-derive the paper's analytical claims on the
      scenario's network — Theorem 3's throughput/capacity ratio against the
      {!Nab_core.Params.stars} bounds, the Theorem-2 cut witnesses via
      {!Nab_core.Capacity.verify}, and the capacity-oblivious gap against a
      measured {!Nab_classic.Oblivious} baseline. These enumerate the
      Appendix-E graph family, so reserve them for paper-scale networks
      (n up to ~8 at f = 1). *)

open Nab_graph
open Nab_core

type ctx = {
  scenario : Scenario.t;
  g : Digraph.t;  (** the materialized G_1 *)
  report : Nab.run_report;
  inputs : int -> Bitvec.t;  (** the closure the run used *)
}

type outcome = {
  name : string;
  ok : bool;
  detail : string;
  data : (string * Nab_obs.Json.t) list;
      (** structured numbers behind the verdict — what [campaign analyze]
          aggregates (certified-capacity ratios, oblivious gaps) without
          parsing [detail]. Empty for most oracles; the theorem oracles
          ["theorem3-ratio"] and ["oblivious-gap"] populate it. *)
}
(** [detail] (and [data]) are deterministic (no wall-clock, no addresses):
    they land in the JSONL result store and must be byte-stable across runs
    and job counts. *)

type oracle = ctx -> bool * string
(** Evaluate one check; returns (ok, detail). *)

val register : string -> oracle -> unit
(** Extend the oracle vocabulary for this process (tests inject
    deliberately-failing oracles to exercise the shrinker). Registered
    names win over the built-in oracles. *)

val evaluate : ctx -> names:string list -> outcome list
(** Run the named oracles in order. An unknown name yields a failing
    outcome (detail ["unknown check"]) rather than an exception, so a
    mistyped scenario surfaces as a violation, not a crash. An oracle that
    raises also yields a failing outcome carrying the exception text. *)
