(** Phase-King Byzantine broadcast (Berman–Garay–Perry [3] family). Uses
    f+1 phases of two logical rounds with O(n^2) value-bits per instance —
    polynomial like EIG but with far smaller constants; this variant requires
    n > 4f (the classic simple phase-king resilience; EIG remains the default
    backend for the full f < n/3 range). Runs over {!Reliable.exchange} like
    {!Eig}, and supports batched multi-source instances. *)

open Nab_graph
open Nab_net

type adversary =
  me:int -> phase_no:int -> round:int -> dst:int -> (int * Wire.payload) list ->
  (int * Wire.payload) list
(** Transform the [(instance_source, value)] pairs a faulty node is about to
    send. [round] is 0 for the initial source dissemination, 1 for the
    all-to-all preference exchange, 2 for the king round. *)

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
(** Decisions keyed by [(source, node)], over participants [nodes]
    (default: all graph vertices). Requires |nodes| > 4f. Guarantees
    agreement always, and validity when the source is honest. *)
