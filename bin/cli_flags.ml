(* The command-line arguments nab_cli and campaign share: the worker-domain
   count and the six network-backend flags. The backend flags go through
   Scenario.backend_of_flags, whose inverse Scenario.fault_flags prints the
   rerun commands, so a printed command selects the backend it came from. *)

open Cmdliner
open Nab_exp

let jobs_arg =
  let doc =
    "Worker domains for scenario execution and the parallel analytical \
     sweeps (gamma*, U_k). Overrides the NAB_JOBS environment variable; 0 \
     keeps the default. Results are identical at any job count."
  in
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"JOBS" ~doc)

(* Unit term that configures the pool before the command body runs
   (cmdliner applies [$] left to right, so prepending this term sequences
   the side effect first). *)
let jobs_term =
  Term.(const (fun jobs -> if jobs > 0 then Nab_util.Pool.set_jobs jobs) $ jobs_arg)

let with_jobs term = Term.(const (fun () r -> r) $ jobs_term $ term)

let defaults = Scenario.default_flags

let net_arg =
  Arg.(
    value
    & opt (enum [ ("sync", `Sync); ("async", `Async); ("socket", `Socket) ]) defaults.net
    & info [ "backend" ] ~docv:"NET"
        ~doc:
          "Network backend: sync (the round-synchronous simulator, default), \
           async (event-driven, with injectable faults) or socket (one OS \
           process per node over real Unix-domain sockets; zero-fault runs \
           report identically to sync).")

let latency_arg =
  Arg.(
    value & opt string defaults.latency
    & info [ "latency" ] ~docv:"SPEC"
        ~doc:
          "Async per-message latency: zero, const:T, uniform:LO:HI or \
           exp:MEAN (time units). Requires --backend async.")

let jitter_arg =
  Arg.(
    value & opt float defaults.jitter
    & info [ "jitter" ] ~docv:"J" ~doc:"Async extra uniform [0,J) delay per message.")

let reorder_arg =
  Arg.(
    value & opt string defaults.reorder
    & info [ "reorder" ] ~docv:"P[:D]"
        ~doc:
          "Async reordering: bump each message with probability P by D time \
           units (D omitted = one round's transmission time).")

let crash_arg =
  Arg.(
    value & opt string defaults.crash
    & info [ "crash" ] ~docv:"N@T,.."
        ~doc:"Async crash faults: node N sends/receives nothing from time T.")

let fault_seed_arg =
  Arg.(
    value & opt int defaults.fault_seed
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed for the async fault randomness (replay key).")

(* A bad combination is a usage error (exit 124) carrying the reason. *)
let backend_term =
  Term.(
    term_result'
      (const (fun net latency jitter reorder crash fault_seed ->
           Scenario.backend_of_flags { net; latency; jitter; reorder; crash; fault_seed })
      $ net_arg $ latency_arg $ jitter_arg $ reorder_arg $ crash_arg $ fault_seed_arg))
