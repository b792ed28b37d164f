(* Loopback benchmark for the process-per-node socket backend
   (Nab_net.Socket): real wall-clock time and goodput for broadcasting q
   values of L bits across n OS processes, against the in-process
   event-loop backend (Async_sim, zero faults) on the identical topology,
   emitting a machine-readable BENCH_socket.json.

   Usage (flags shared by every bench, see harness.ml):
     dune exec bench/socket.exe                   # sweep + BENCH_socket.json
     dune exec bench/socket.exe -- --out F.json   # choose the artifact path
     dune exec bench/socket.exe -- --quick        # smaller L and Q
     dune exec bench/socket.exe -- --check        # correctness-only gate:
                                                  # socket == sync run
                                                  # reports at zero faults
     dune exec bench/socket.exe -- --verify-artifact F.json
                                                  # fail unless the artifact
                                                  # carries every required
                                                  # (topology, backend) row

   Unlike the async degradation bench, the headline numbers here are REAL
   seconds — process spawn, socket syscalls, frame codec — so the committed
   artifact is a trajectory, not a byte-reproducible value: CI re-verifies
   its grid (presence-only, like BENCH_kernels.json) but never diffs
   regenerated wall-clock numbers. The simulated-time fields (sim_wall,
   the run report content) ARE deterministic, and --check holds the socket
   backend's reports byte-identical to the synchronous simulator's.

   On platforms where the backend cannot run at all (no process spawn),
   --check and the sweep skip gracefully via Socket.available, recording
   the reason. *)

open Nab_graph
open Nab_core
open Nab_net

(* The library's simulator, named explicitly: a bare [Sim] would make
   dune link bench/sim.ml, which shares this executables stanza. *)
module Sim = Nab_net.Sim

let topologies =
  [
    ("complete", Gen.complete ~n:4 ~cap:2);
    ("twin", Gen.twin_cliques ~half:3 ~spoke_cap:8 ~intra_cap:8 ~cross_cap:1);
    ("star", Gen.star_mesh ~n:6 ~spoke_cap:4 ~mesh_cap:1);
  ]

let backends = [ "socket"; "async" ]

(* ------------------------------ running ------------------------------ *)

(* ------------------------------- sweep ------------------------------- *)

module Json = Nab_obs.Json

(* One (topology, backend) cell: q broadcasts of L bits, timed in real
   seconds around the whole run (transport setup included — for the socket
   backend the first instance spawns the topology's fleet and the later
   ones lease it from the pool). Goodput is delivered payload over real
   time. *)
let cell ~quick (name, g) backend =
  let l = if quick then 256 else 1024 in
  let q = if quick then 2 else 4 in
  let seed = 7 in
  let transport =
    match backend with
    | "socket" -> Socket.factory ()
    | "async" -> Async_sim.factory ~spec:Async_sim.no_faults ()
    | other -> invalid_arg ("unknown backend " ^ other)
  in
  let base =
    [
      ("name", Json.Str name);
      ("backend", Json.Str backend);
      ("n", Json.Int (Digraph.num_vertices g));
      ("l_bits", Json.Int l);
      ("q", Json.Int q);
    ]
  in
  match
    let t0 = Unix.gettimeofday () in
    let r = Harness.run_nab ~transport ~adv:"none" g ~l ~q ~seed in
    let dt = Unix.gettimeofday () -. t0 in
    (r, dt)
  with
  | r, dt ->
      Json.Obj
        (base
        @ [
            ("wall_s", Json.float dt);
            ("goodput_bps", Json.float (float_of_int (l * q) /. dt));
            ("sim_wall", Json.float r.Nab.total_wall);
            ("sim_throughput", Json.float r.Nab.throughput_wall);
            ("agree", Json.Bool (Nab.fault_free_agree r));
          ])
  | exception e -> Json.Obj (base @ [ ("error", Json.Str (Printexc.to_string e)) ])

let sweep ~quick ~(write : Harness.writer) =
  let socket_ok =
    match Socket.available () with
    | Ok () -> None
    | Error reason ->
        Printf.printf "socket backend unavailable (%s): recording skip rows\n%!"
          reason;
        Some reason
  in
  let results =
    List.concat_map
      (fun topo ->
        List.map
          (fun backend ->
            match (backend, socket_ok) with
            | "socket", Some reason ->
                let name, _ = topo in
                Json.Obj
                  [
                    ("name", Json.Str name);
                    ("backend", Json.Str backend);
                    ("error", Json.Str ("socket backend unavailable: " ^ reason));
                  ]
            | _ -> cell ~quick topo backend)
          backends)
      topologies
  in
  List.iter
    (fun row ->
      let get k p = Harness.get k p row in
      match (get "name" Json.get_string, get "backend" Json.get_string) with
      | Some name, Some backend -> (
          match (get "wall_s" Json.get_float, get "goodput_bps" Json.get_float) with
          | Some w, Some gp ->
              Printf.printf "  %-8s %-6s wall %.3fs goodput %.0f bits/s\n" name
                backend w gp
          | _ ->
              Printf.printf "  %-8s %-6s ERROR %s\n" name backend
                (Option.value ~default:"?" (get "error" Json.get_string)))
      | _ -> ())
    results;
  write
    ~config:
      [
        ("quick", Json.Bool quick);
        ("l_bits", Json.Int (if quick then 256 else 1024));
        ("q", Json.Int (if quick then 2 else 4));
        ("seed", Json.Int 7);
      ]
    ~results:(Json.List results) []

(* ------------------------------- check ------------------------------- *)

(* The differential gate: at zero faults the socket backend — real
   processes, real sockets, the byte codec on every message — must
   reproduce the synchronous run report byte for byte: decisions,
   disputes, dispute-control count, per-phase timings, link bits. *)
let run_checks () =
  (match Socket.available () with
  | Ok () -> ()
  | Error reason ->
      (* No process spawn on this platform: the gate cannot run. Skip
         loudly rather than fail — where the probe succeeds, failures
         below are real. *)
      Printf.printf "socket check: SKIPPED (%s)\n" reason;
      exit 0);
  let check = Harness.check in
  let report_json r = Json.to_string (Report.run_to_json r) in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun adv ->
          let run transport = Harness.run_nab ~transport ~adv g ~l:256 ~q:2 ~seed:7 in
          check
            (Printf.sprintf "%s/%s socket == sync" name adv)
            (report_json (run Sim.default_factory)
            = report_json (run (Socket.factory ()))))
        [ "none"; "ec-liar"; "chaos:7" ])
    topologies;
  (* TCP loopback exercises a different socket family and the nonblocking
     connect/TCP_NODELAY paths; one case keeps it honest. *)
  check "complete/none socket-tcp == sync"
    (let g = Gen.complete ~n:4 ~cap:2 in
     let run transport = Harness.run_nab ~transport ~adv:"none" g ~l:256 ~q:2 ~seed:7 in
     report_json (run Sim.default_factory) = report_json (run (Socket.factory ~mode:`Tcp ())))

(* -------------------------- artifact verify -------------------------- *)

(* Presence-only gate, mirroring kernels.exe and async.exe: every
   (topology, backend) cell of the sweep grid must exist and carry either
   a goodput or a recorded error — no silent shrinkage of the grid. The
   wall-clock values themselves are machine-dependent and never diffed. *)
let required_rows =
  List.concat_map
    (fun (name, _) ->
      List.map
        (fun b ->
          Harness.row (Printf.sprintf "%s backend=%s" name b) (fun row ->
              let get k p = Harness.get k p row in
              get "name" Json.get_string = Some name
              && get "backend" Json.get_string = Some b
              && (get "goodput_bps" Json.get_float <> None
                 || get "error" Json.get_string <> None)))
        backends)
    topologies

(* ------------------------------- main ------------------------------- *)

let () =
  (* Must run before anything else: when this binary is re-executed as a
     socket-backend node process, it becomes the node's event loop and
     never returns. *)
  Socket.exec_node_if_requested ();
  Harness.run ~name:"socket" ~wall_clock:true ~verify:required_rows ~check:run_checks
    sweep
