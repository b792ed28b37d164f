(** Exponential Information Gathering Byzantine broadcast (Pease, Shostak,
    Lamport [19]) — the paper's Broadcast_Default. Tolerates f < n/3 on a
    complete network; here each logical round runs over {!Reliable.exchange},
    so it works on any graph with connectivity >= 2f+1, exactly as Appendix D
    prescribes. Takes f+1 logical rounds and O(n^(f+1)) value-bits per
    instance — polynomial P(n) for fixed f, amortized away by NAB.

    Multiple instances with distinct sources run batched in lockstep: labels
    begin with the source id, so one wire exchange per round carries every
    instance. This is how step 2.2 broadcasts all n MISMATCH flags at once. *)

open Nab_graph
open Nab_net

type adversary =
  me:int -> round:int -> dst:int -> (int list * Wire.payload) list ->
  (int list * Wire.payload) list
(** Transforms the label/value pairs a faulty node is about to send (round 1:
    the source's own value under label [source]; later rounds: its relays).
    The honest behaviour is the identity. *)

val honest : adversary

val broadcast_all :
  net:Transport.t ->
  ?nodes:int list ->
  phase:string ->
  routing:Routing.t ->
  f:int ->
  inputs:(int * Wire.payload) list ->
  default:Wire.payload ->
  faulty:Vset.t ->
  ?adversary:adversary ->
  ?reliable_hooks:Reliable.hooks ->
  unit ->
  (int * int, Wire.payload) Hashtbl.t
(** Run one EIG instance per [(source, value)] input, concurrently, over the
    participant set [nodes] (default: all vertices of the simulator's
    graph — pass V_k explicitly when excluded nodes remain physically
    present as relays). Returns the decision of every participant for every
    instance, keyed by [(source, node)]. Guarantees (for f < |nodes|/3,
    at most f faulty anywhere, and 2f+1-connected routing): all honest
    participants decide identically per instance, and on the source's input
    when the source is honest.

    A received item whose label is not a well-formed label of its round
    (wrong length, a vertex outside the participants, a repeated vertex,
    a non-source root, or the relayer already inside) is ignored, and of
    two items for one label the first wins. Raises [Invalid_argument] when
    n <= 3f, a source or participant is absent from the graph, a source is
    not a participant, or (n+1)^(f+1) exceeds [max_int]. *)

val broadcast :
  net:Transport.t ->
  ?nodes:int list ->
  phase:string ->
  routing:Routing.t ->
  f:int ->
  source:int ->
  value:Wire.payload ->
  default:Wire.payload ->
  faulty:Vset.t ->
  ?adversary:adversary ->
  ?reliable_hooks:Reliable.hooks ->
  unit ->
  (int * Wire.payload) list
(** Single-source convenience wrapper: decisions per node, sorted by node. *)
