(** The Figure-3 pipelining schedule (Appendix D). With propagation delays,
    Phase 1 information moves one hop per round; NAB divides time into rounds
    of length L/gamma' + L/rho' + O(n^a) and runs successive instances
    staggered by one round, so the steady-state cost per instance is one
    round regardless of the network diameter. *)

val render : q:int -> hops:int -> string
(** ASCII rendering of the schedule grid for [q] instances over [hops]
    Phase-1 hops, one row per instance — the shape of Figure 3: instance i
    performs hop h in round i + h - 1 and Phase 2 in round i + hops, so the
    grid spans q + hops rounds. Raises [Invalid_argument] unless [q] and
    [hops] are positive. *)
