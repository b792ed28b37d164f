(** Process-lifetime, content-keyed memo tables for expensive planning
    results (arborescence packings, capacity cut certificates, verified
    coding matrices). A campaign replays hundreds of scenarios that share a
    handful of topology families; each distinct plan should be computed once
    per process, no matter how many scenarios need it or how many pool
    domains ([--jobs]) are racing.

    Keys are canonical content fingerprints (e.g.
    {!Nab_graph.Digraph.fingerprint} plus the parameters the computation
    depends on), so a cache hit is observably identical to recomputation:
    cached values must be pure functions of their key. Like the PR 1 field
    caches, a cache is domain-safe; unlike them it is {e single-flight}: when
    several domains ask for the same missing key simultaneously, exactly one
    computes while the others wait for its result — "once per process" is a
    guarantee, not a fast path.

    Values are immutable plan data shared freely across domains. Do not
    cache anything mutable.

    A cache is unbounded by default. For campaigns whose working set is
    open-ended (a 10^5-scenario soak over mostly-distinct sampled
    topologies) an LRU entry bound can be set on every cache
    ({!set_cap_all}, the [--plan-cache-cap] campaign flag): the
    least-recently-used entries are dropped once the bound is exceeded, an
    evicted key simply recomputes on its next request, and in-flight
    computations are never evicted. Eviction changes {e when} a plan is
    recomputed, never {e what} is returned, so bounded caches preserve the
    byte-identical-artifact guarantee. *)

type 'v t

val create : name:string -> unit -> 'v t
(** A fresh, unbounded cache, registered under [name] for {!clear_all},
    {!global_stats} and {!set_cap_all}. Create caches at module
    initialisation (one per kind of plan), not per use. *)

val find_or_compute : 'v t -> key:string -> (unit -> 'v) -> 'v
(** [find_or_compute t ~key f] returns the cached value for [key], or runs
    [f ()], installs the result and returns it. Concurrent calls with the
    same missing key run [f] exactly once: the losers block until the winner
    installs (or fails — then the next waiter retries the computation).
    [f] runs outside the cache lock, so it may itself use {!Pool} or other
    caches; it must not re-enter the same cache with the same key. *)

val find : 'v t -> key:string -> 'v option
(** A non-blocking peek: [None] for absent {e and} still-computing keys.
    Does not count towards {!stats}, but a hit does refresh the entry's LRU
    recency. *)

val set_cap_all : int option -> unit
(** Set or clear the LRU entry bound of every cache created so far — the
    process-wide knob behind [campaign run --plan-cache-cap]. [Some n]
    (clamped to [>= 1]) evicts least-recently-used entries immediately
    where a cache already exceeds [n]; [None] removes the bound. In-flight
    (still-computing) entries are never evicted and do not count towards
    the bound. *)

type stats = { hits : int; misses : int; entries : int; evictions : int }

val stats : 'v t -> stats
(** [hits]/[misses] count {!find_or_compute} calls since creation (or the
    last {!clear}); a miss that waited on another domain's computation still
    counts as a miss. [entries] is the current table size and [evictions]
    the number of entries dropped by the LRU bound. *)

val clear : 'v t -> unit
(** Drop every entry and reset the counters. Safe concurrently with
    readers; in-flight computations still install their result afterwards. *)

val clear_all : unit -> unit
(** {!clear} every cache created so far — the cold-start switch for
    benchmarks that compare cold vs warm planning. *)

val global_stats : unit -> (string * stats) list
(** [(name, stats)] for every cache created so far, sorted by name —
    campaign drivers report this so a run shows how much planning it
    actually shared. *)
