(* The timing transport must be transparent and its accounting exact:

   - a run through the wrapping factory reports byte-identically
     (Report.run_to_json) to a run through the bare factory, on the sync
     simulator and on the socket backend;
   - for every instance, transport self time plus outbox time plus
     between-rounds time equals the instance's measured wall, to the
     nanosecond.

   The socket half is skipped, with its reason, where Socket.available
   says fleets cannot run. *)

open Nab_graph
open Nab_core
open Nab_net
module Timing = Perfbench.Timing

let failures = ref 0

let check label ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") label;
  if not ok then incr failures

let g = Gen.complete ~n:4 ~cap:2
let config = Nab.config ~f:1 ~l_bits:1024 ~seed:7 ()
let q = 3

let inputs =
  let rng = Random.State.make [| 7; 0x1ca11 |] in
  let pool = Array.init q (fun _ -> Bitvec.random 1024 rng) in
  fun k -> pool.(k - 1)

(* "ec-liar" drives dispute control, so the delivery-trace queries and the
   dispute-control phase go through the wrapper too. *)
let adversaries = [ "none"; "ec-liar" ]

let report_json transport adv =
  let adversary = Option.get (Adversary.find adv) in
  Nab_obs.Json.to_string (Report.run_to_json (Nab.run ~transport ~g ~config ~adversary ~inputs ~q ()))

let sum_prefix t prefix =
  let n = String.length prefix in
  List.fold_left
    (fun acc (name, ns, _) ->
      if String.length name >= n && String.sub name 0 n = prefix then acc + ns else acc)
    0 (Timing.spans t)

let backend label ~bare ~wrapped =
  List.iter
    (fun adv ->
      let t = Timing.create () in
      check
        (Printf.sprintf "%s/%s: report identical through the timing factory" label adv)
        (report_json bare adv = report_json (wrapped t) adv);
      let t = Timing.create () in
      let ses =
        Nab.create_session ~transport:(wrapped t) ~g ~config
          ~adversary:(Option.get (Adversary.find adv)) ()
      in
      for k = 1 to q do
        let parts () =
          (sum_prefix t "transport.", sum_prefix t "proto.outbox.", sum_prefix t "proto.between_rounds")
        in
        let tr0, ob0, bw0 = parts () in
        let _, wall =
          Timing.measure t "proto.between_rounds" (fun () -> Nab.session_broadcast ses (inputs k))
        in
        let tr1, ob1, bw1 = parts () in
        let tr, ob, bw = (tr1 - tr0, ob1 - ob0, bw1 - bw0) in
        check
          (Printf.sprintf "%s/%s instance %d: transport %d + outbox %d + between %d = wall %d ns"
             label adv k tr ob bw wall)
          (tr + ob + bw = wall && tr > 0 && ob > 0 && bw > 0)
      done)
    adversaries

let () =
  Socket.exec_node_if_requested ();
  Nab_util.Pool.set_jobs 1;
  backend "sync" ~bare:Sim.default_factory ~wrapped:(fun t -> Timing.factory t Sim.default_factory);
  (match Socket.available () with
  | Ok () -> backend "socket" ~bare:(Socket.factory ()) ~wrapped:Timing.socket_factory
  | Error reason -> Printf.printf "skip socket: %s\n" reason);
  if !failures > 0 then exit 1
