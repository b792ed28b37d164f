(* Regenerates test/golden_trace.jsonl — the committed trace of the fixed
   run test_obs.ml's [golden_artifacts] performs. Keep the run parameters
   here and there in sync; rerun after an intentional trace-schema change:

     dune exec test/gen_golden.exe > test/golden_trace.jsonl
*)

open Nab_graph
open Nab_core

let () =
  let input_fn ~l ~seed = Bitvec.random_stream l (Random.State.make [| seed |]) in
  let trace = Buffer.create 4096 in
  let ctx = Nab_obs.make ~sample_messages:7 [ Nab_obs.buffer_jsonl_sink trace ] in
  let config = Nab.config ~f:1 ~l_bits:128 ~m:8 () in
  let (_ : Nab.run_report) =
    Nab.run ~obs:ctx
      ~g:(Gen.complete ~n:4 ~cap:2)
      ~config ~adversary:Adversary.ec_liar
      ~inputs:(input_fn ~l:128 ~seed:23) ~q:2 ()
  in
  Nab_obs.close ctx;
  print_string (Buffer.contents trace)
