(** A dependency-free domain pool for embarrassingly-parallel sweeps.

    Built on OCaml 5 [Domain]/[Mutex]/[Condition] only (domainslib is not in
    the dependency set). Worker domains are spawned lazily on the first
    parallel {!map} and are reused for the rest of the process; a batch's
    caller also executes queued tasks of its own batch while it waits, so
    nested {!map} calls (a parallel sweep whose tasks themselves call a
    parallel analytic) cannot deadlock: whoever waits, works on what it is
    waiting for. Callers never steal {e other} batches' tasks — stealing an
    arbitrary task could bury, under a frame that owns a single-flight
    {!Plan_cache} slot, work that blocks on that same slot (see the
    rationale in [pool.ml]).

    {2 Determinism contract}

    [map f xs] returns results keyed by input {e index}, never by completion
    order, so the output is identical to [List.map f xs] whatever the
    parallelism — provided [f] itself is deterministic and domain-safe. Any
    mutable state [f] touches must be synchronized (the [Nab_field] caches
    are; see [Gf2p]); a memo consulted by [f] may change {e when} a value is
    recomputed but never {e what} is returned. Under this contract every
    printed result in the repo is byte-identical between [NAB_JOBS=1] and
    [NAB_JOBS=n].

    {2 Job-count resolution}

    The default job count is, in priority order: the last {!set_jobs} value,
    the [NAB_JOBS] environment variable, then
    [Domain.recommended_domain_count ()]. [1] means fully sequential: no
    domain is ever spawned and [map] is plain [List.map]. *)

val set_jobs : int -> unit
(** Override the default job count for the whole process (e.g. from a
    [--jobs] CLI flag). Values [< 1] are clamped to [1]. Takes precedence
    over [NAB_JOBS]. *)

val jobs : unit -> int
(** The resolved default job count. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] is [List.map f xs], computed by up to [jobs] domains
    (default {!jobs} [()]). Results are in input order. If any [f x] raises,
    the first (lowest-index) exception is re-raised in the caller after the
    whole batch has settled. *)
