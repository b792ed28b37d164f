(** Algorithm 1 — Equality Check with parameter rho_k. One simulator round:
    each node sends z_e coded symbols on each outgoing edge and checks each
    incoming edge's symbols against its own value. No forwarding, so faulty
    nodes cannot tamper with what fault-free neighbours exchange (the
    algorithm's salient feature). *)

open Nab_graph
open Nab_net

val proto : string
(** Wire protocol label ("ec"). *)

type adversary = me:int -> dst:int -> int array -> int array
(** Transform the coded symbols a faulty node is about to send on one edge;
    the honest behaviour is the identity. *)

val honest : adversary

val run :
  net:Transport.t ->
  graph:Digraph.t ->
  phase:string ->
  coding:Coding.t ->
  values:(int -> int array) ->
  faulty:Vset.t ->
  ?adversary:adversary ->
  unit ->
  (int * bool) list
(** [run ~net ~graph ~phase ~coding ~values ~faulty ()] performs the check
    on [graph] (G_k, which may be smaller than the network [net] carries),
    where [values v] is node
    v's symbol vector X_v (stripes * rho symbols). Returns each node's 1-bit
    flag: [true] means MISMATCH. Guarantee (EC), given correct matrices: if
    two fault-free nodes hold different values, some fault-free node flags
    MISMATCH. *)

val send :
  Coding.t -> faulty:Vset.t -> adversary:adversary -> me:int -> dst:int -> int array ->
  Wire.payload
(** What [me] sends [dst] given its symbol vector: the edge's coded
    symbols, passed through [adversary] when [me] is faulty. {!run} and the
    streaming driver's transcript both call it. *)

val expected_send : Coding.t -> edge:int * int -> x:int array -> Wire.payload
(** The payload an honest node must send on an edge — shared with dispute
    control's DC3 recomputation. *)

val expected_flag :
  Coding.t -> graph:Digraph.t -> me:int -> x:int array ->
  received:(src:int -> Wire.payload option) -> bool
(** The flag an honest node with value [x] must announce given what it
    received on each incoming edge ([None] = nothing arrived, which counts
    as a mismatch by the default-value rule). Shared with DC3. *)
