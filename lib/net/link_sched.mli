(** Per-link deficit-round-robin scheduling: the data plane of a
    streaming session that multiplexes many broadcast instances over one
    shared fabric.

    Each directed link of the graph owns an independent scheduler: a FIFO
    per {e flow} (a caller-chosen integer id, e.g. the broadcast instance),
    a rotation over the flows with queued traffic, and a per-flow deficit
    counter in bits. One {!select} call picks at most one round's worth of
    traffic per link — a time budget of [quantum] simulated units, i.e.
    [cap_e * quantum] bits on link [e] — splitting the budget equally
    across the active flows, with unused credit carried in the deficit
    counter exactly as in classic DRR.

    Fairness contract, for flows that stay backlogged on a link from their
    activation on, with no packet longer than its flow's per-round share
    ([cap_e * quantum / n] bits among [n] active flows): no flow ever sends more than its share summed over the rounds,
    and the flow at the head of the rotation sends at least that minus one
    maximum packet size. When the packet sizes divide the shares, every
    flow sends exactly its share in every round. The round budget is
    checked per packet, though, and budget that the next head packet does
    not fit is left unused: a flow later in the rotation can fall behind
    its share by a fraction of a packet per round, without bound over
    many rounds (it keeps the credit, but the link time is lost).
    Progress guarantee: a link with queued traffic never goes
    silent — when no queued packet fits the round budget, the head packet
    of the rotation's current flow is force-sent and that flow's credit is
    reset, so an oversized packet costs its flow its accumulated share but
    cannot deadlock the link.

    Backpressure is by construction: {!enqueue} never drops or reorders
    within a flow, packets simply wait in their link FIFO until scheduled;
    {!queued} exposes the backlog so an admission layer can bound its
    in-flight window. *)

type t

val create : quantum:float -> Nab_graph.Digraph.t -> t
(** A scheduler over the graph's links. [quantum] is the per-round time
    budget; a round produced by {!select} therefore lasts
    about [quantum] simulated time units when links are saturated. Raises
    [Invalid_argument] when [quantum <= 0]. *)

val enqueue : t -> flow:int -> src:int -> dst:int -> Packet.t -> unit
(** Append a packet to [flow]'s FIFO on link [(src, dst)]. Raises
    [Invalid_argument] when the link is not in the graph. *)

val flush_flow : t -> int -> unit
(** Discard every queued packet of the flow on every link (rollback of a
    cancelled instance). In-flight packets already selected are the
    caller's concern. *)

val queued : t -> int
(** Total packets currently queued across all links. *)

val select : t -> (int * (int * Packet.t) list) list
(** Dequeue one round of traffic: for each link, up to the round budget in
    DRR order (plus the force-send progress rule). Returns per-source
    outboxes [(src, [(dst, packet); ...])] ready for
    [Transport.round]. Empty when nothing is queued. *)
