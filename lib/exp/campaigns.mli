(** The built-in campaigns.

    {!quick} is the deterministic tier: a fixed scenario list small enough
    for CI, exercising every adversary in the zoo on paper-scale networks
    and evaluating the theorem oracles (Theorems 1-3, the Theorem-2
    witnesses, the capacity-oblivious gap) where the Appendix-E enumeration
    is tractable. Its JSONL result is committed as [CAMPAIGN_baseline.jsonl]
    and diffed in CI; change the list and the baseline together.

    {!soak} is the randomized tier: the sampler behind
    [campaign run --soak TRIALS --seed SEED], scaled by trial count and
    reseedable. *)

val quick : unit -> Scenario.t list

val soak : trials:int -> seed:int -> Scenario.t list
(** [Scenario.sample], re-exported under the campaign vocabulary. *)

