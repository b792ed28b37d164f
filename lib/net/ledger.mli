(** The accounting every delivery engine shares: the paper's capacity
    model in one place.

    A ledger compiles a digraph once into a dense index (a direct
    id->index table, edge arrays in (src, dst) order carrying capacity,
    and an O(1) edge-id lookup) and keeps the whole
    run's books: per-phase accumulators, the per-round bit tally, per-link
    totals, the delivery trace and the ["sim"]-scope observability points.
    A round in which link e of capacity z_e carries b_e bits lasts
    [max_e b_e / z_e].

    The engines ({!Sim}, {!Async_sim}, and {!Socket} through {!Sim}) own
    only delivery: {e when} a message arrives and which inbox it lands in.
    Each round they call {!begin_round}, {!charge} every accepted send,
    {!deliver} every arrival, and close with {!tally} and {!end_round} —
    in the order their observability stream requires. The ledger is
    polymorphic in the message type; [bits] sizes a message. *)

type 'm event = { round_no : int; ev_phase : string; src : int; dst : int; msg : 'm }

type 'm t

val create :
  ?obs:Nab_obs.ctx ->
  ?keep_events:bool ->
  who:string ->
  Nab_graph.Digraph.t ->
  bits:('m -> int) ->
  'm t
(** A fresh ledger over the graph. [who] names the engine in the error
    {!charge} raises.
    [obs] and [keep_events] as in {!Sim.create}. *)

(** {1 Index} *)

val nv : 'm t -> int
val vertex : 'm t -> int -> int
(** Vertex id at a dense index; indices follow ascending vertex id. *)

val vertex_index : 'm t -> int -> int
(** Dense index of a vertex id, or -1 when it is not in the graph. *)

val edge_id : 'm t -> int -> int -> int
(** [edge_id t src dst] is the link's edge id, or -1 when there is no
    such link. *)

val edge_dst : 'm t -> int -> int
(** Dense index of an edge's destination. *)

(** {1 Rounds} *)

val begin_round : 'm t -> phase:string -> unit
(** Open the next round, accounted to [phase]. *)

val charge : 'm t -> int -> 'm -> unit
(** Put a message on an edge: it counts towards this round's tally and
    the link's total. Raises [Invalid_argument] on a non-positive size. *)

val drop : 'm t -> unit
(** Count a message addressed to a link that does not exist. *)

val deliver : 'm t -> int -> int -> 'm -> unit
(** [deliver t src dst msg] records a delivery in the current round: the
    trace (when kept) and, every [sample_messages]-th time, a ["msg"]
    point. *)

val tally : 'm t -> float * int
(** The round's transmission time (slowest charged link) and bits, and
    reset the tally for the next round. *)

val end_round : 'm t -> duration:float -> bits:int -> unit
(** Account the round's duration and bits to its phase and emit the
    ["round"] point. *)

val drain :
  'm t -> pending:(unit -> int) -> ((int -> (int * 'm) list) -> int -> (int * 'm) list) ->
  int -> (int * 'm) list
(** [drain t ~pending round] runs [round] with empty outboxes while
    [pending ()] is positive and returns the merged arrivals per node, in
    delivery order. *)

(** {1 Accessors} — the bodies behind every backend's {!Transport.TRANSPORT}
    accessors. *)

val graph : 'm t -> Nab_graph.Digraph.t
val obs : 'm t -> Nab_obs.ctx
val keeps_events : 'm t -> bool
val rounds_run : 'm t -> int
val dropped : 'm t -> int
val add_cost : 'm t -> phase:string -> float -> unit
val timing : 'm t -> Transport.timing
val link_bits : 'm t -> ((int * int) * int) list
val utilization : 'm t -> ((int * int) * float) list
val events : 'm t -> 'm event list
val events_of_phase : 'm t -> string -> 'm event list

val transport_events : Packet.t t -> string -> Transport.event list
(** {!events_of_phase} as {!Transport.event}s. *)
