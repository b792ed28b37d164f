(* Lifecycle and equivalence tests for the process-per-node socket backend
   (Nab_net.Socket): per-round inbox identity against the synchronous
   simulator, crash-mid-round surfacing as a clean Socket_error, close
   reaping every node process (no orphans), and fd hygiene across repeated
   create/close cycles, and obs JSONL identity with the synchronous run
   (socket at several sampling rates; zero-fault async alongside). The
   run-report differential is gated by bench/socket.exe --check and the
   socket quick campaign. *)

(* Must run before anything else: when this binary is re-executed as a
   socket node process it becomes the node's event loop and never returns
   (in particular it never reaches Alcotest.run). *)
let () = Nab_net.Socket.exec_node_if_requested ()

open Nab_graph
open Nab_net

(* The obs-identity runs plan through Pool, and Unix.fork refuses once a
   worker domain exists: keep this process single-domain so its fleets
   can still spawn. *)
let () = Nab_util.Pool.set_jobs 1
let availability = Socket.available ()

(* Platforms without fork (or without working sockets) skip — loudly, so a
   misconfigured CI runner is visible in the logs, but green: the gate
   only binds where the probe says the backend can run at all. *)
let requires_socket f () =
  match availability with
  | Error reason ->
      Printf.printf "SKIP: socket backend unavailable (%s)\n%!" reason
  | Ok () -> f ()

let k4 () = Gen.complete ~n:4 ~cap:8

(* Everyone sends two packets to every other node; two per ordered pair
   exercises the within-group delivery order the synchronous inbox
   contract fixes exactly. *)
let sends g u =
  List.concat_map
    (fun v ->
      if v = u then []
      else
        [
          ( v,
            Packet.direct ~proto:"t1" ~origin:u ~dst:v
              (Wire.Value { bits = 32; data = [| (u * 100) + v |] }) );
          (v, Packet.direct ~proto:"t2" ~origin:u ~dst:v (Wire.Flag (u < v)));
        ])
    (Digraph.vertices g)

(* --------------------------- round identity --------------------------- *)

let test_rounds_match_sim () =
  let g = k4 () in
  let sim = Sim.factory () ~obs:Nab_obs.null ~keep_events:false g in
  let sock = Socket.factory () ~obs:Nab_obs.null ~keep_events:false g in
  Fun.protect
    ~finally:(fun () ->
      Transport.close sock;
      Transport.close sim)
    (fun () ->
      for round = 1 to 3 do
        let inbox_sim = Transport.round sim ~phase:"test" (sends g) in
        let inbox_sock = Transport.round sock ~phase:"test" (sends g) in
        List.iter
          (fun v ->
            Alcotest.(check bool)
              (Printf.sprintf "round %d: node %d inbox identical to Sim" round v)
              true
              (inbox_sim v = inbox_sock v))
          (Digraph.vertices g)
      done;
      Alcotest.(check bool) "capacity accounting identical to Sim" true
        (Transport.link_bits sim = Transport.link_bits sock))

(* Drive one round for its exchange side effect, discarding the inbox
   lookup closure it returns. *)
let run_round tr ~phase g =
  let (_ : int -> (int * Packet.t) list) = Transport.round tr ~phase (sends g) in
  ()

(* ----------------------------- obs identity ----------------------------- *)

(* The obs JSONL of a fixed run: message points every [sample]-th delivery,
   fixed inputs, so the trace is a pure function of the backend's
   accounting. *)
let obs_trace ~transport ~sample g adversary =
  let buf = Buffer.create 4096 in
  let obs = Nab_obs.make ~sample_messages:sample [ Nab_obs.buffer_jsonl_sink buf ] in
  let inputs k = Nab_core.Bitvec.random 128 (Random.State.make [| 23; k |]) in
  let config = Nab_core.Nab.config ~f:1 ~l_bits:128 ~m:8 () in
  let (_ : Nab_core.Nab.run_report) =
    Nab_core.Nab.run ~obs ~transport ~g ~config ~adversary ~inputs ~q:2 ()
  in
  Nab_obs.close obs;
  Buffer.contents buf

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let obs_cases () =
  List.concat_map
    (fun (gname, g) ->
      List.map
        (fun (aname, adv) -> (Printf.sprintf "%s/%s" gname aname, g, adv))
        [ ("none", Nab_core.Adversary.none); ("ec-liar", Nab_core.Adversary.ec_liar) ])
    [
      ("complete4", Gen.complete ~n:4 ~cap:2);
      ("twin", Gen.twin_cliques ~half:3 ~spoke_cap:8 ~intra_cap:8 ~cross_cap:1);
    ]

let check_obs_identity ~name ~samples transport =
  List.iter
    (fun (case, g, adv) ->
      List.iter
        (fun sample ->
          let sync = obs_trace ~transport:Sim.default_factory ~sample g adv in
          let contains_msg_point = contains sync "\"name\":\"msg\"" in
          Alcotest.(check bool)
            (Printf.sprintf "%s: sync trace samples messages iff sample > 0" case)
            (sample > 0) contains_msg_point;
          Alcotest.(check string)
            (Printf.sprintf "%s %s: obs JSONL = sync (sample %d)" name case sample)
            sync
            (obs_trace ~transport ~sample g adv))
        samples)
    (obs_cases ())

let test_obs_socket () =
  check_obs_identity ~name:"socket" ~samples:[ 0; 1; 3 ] (Socket.factory ())

let test_obs_async () =
  check_obs_identity ~name:"async" ~samples:[ 0 ] (Async_sim.factory ())

(* ----------------------------- lifecycle ------------------------------ *)

(* After close has reaped a pid, waitpid on it must say "not my child":
   anything else is an orphan (or an unreaped zombie). *)
let check_reaped pids =
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _ -> Alcotest.fail (Printf.sprintf "pid %d not reaped by close" pid)
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ())
    pids

let test_crash_mid_round () =
  let g = k4 () in
  let t = Socket.create g in
  let tr = Socket.transport t in
  let pids = Socket.pids t in
  Alcotest.(check int)
    "one process per vertex"
    (Digraph.num_vertices g) (List.length pids);
  (* A clean round first: the fleet is genuinely live. *)
  run_round tr ~phase:"warm" g;
  (* Kill one node, then drive a round: the failure must surface as a
     Socket_error — not a hang, not a wrong inbox, not a stray Unix
     exception. *)
  Unix.kill (List.nth pids 2) Sys.sigkill;
  (match run_round tr ~phase:"crashed" g with
  | () -> Alcotest.fail "round completed with a dead node"
  | exception Socket.Socket_error _ -> ());
  (* close after a failure is still clean, and idempotent. *)
  Socket.close t;
  Socket.close t;
  check_reaped pids;
  (* A dead fleet refuses further rounds rather than misbehaving. *)
  match run_round tr ~phase:"after" g with
  | () -> Alcotest.fail "round on a failed fleet succeeded"
  | exception Socket.Socket_error _ -> ()

let test_clean_close_no_orphans () =
  let g = k4 () in
  let t = Socket.create g in
  let tr = Socket.transport t in
  let pids = Socket.pids t in
  run_round tr ~phase:"r" g;
  Transport.close tr;
  check_reaped pids;
  (* The polite Stop handshake collected every node's traffic counters:
     real bytes moved on real sockets, and no decode errors at zero
     faults. *)
  let stats = Socket.node_stats t in
  Alcotest.(check int) "stats from every node" (Digraph.num_vertices g)
    (List.length stats);
  List.iter
    (fun (v, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d moved bytes cleanly" v)
        true
        (s.Socket.bytes_sent > 0
        && s.Socket.bytes_received > 0
        && s.Socket.decode_errors = 0))
    stats

let count_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let test_no_fd_leak () =
  let g = k4 () in
  let cycle () =
    let t = Socket.create g in
    run_round (Socket.transport t) ~phase:"r" g;
    Socket.close t
  in
  (* One warm-up cycle settles lazy one-time state (signal handling etc.)
     before the measurement window. *)
  cycle ();
  match count_fds () with
  | None -> Printf.printf "SKIP: no /proc/self/fd on this platform\n%!"
  | Some before ->
      for _ = 1 to 5 do
        cycle ()
      done;
      let after = Option.get (count_fds ()) in
      Alcotest.(check int) "fd count stable across create/close cycles" before
        after

(* -------------------------------- main -------------------------------- *)

let () =
  Alcotest.run "socket"
    [
      ( "round identity",
        [
          Alcotest.test_case "inboxes and accounting match Sim" `Quick
            (requires_socket test_rounds_match_sim);
        ] );
      ( "obs identity",
        [
          Alcotest.test_case "socket trace = sync trace" `Quick
            (requires_socket test_obs_socket);
          Alcotest.test_case "zero-fault async trace = sync trace" `Quick test_obs_async;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "crash mid-round is a clean error" `Quick
            (requires_socket test_crash_mid_round);
          Alcotest.test_case "close reaps every node" `Quick
            (requires_socket test_clean_close_no_orphans);
          Alcotest.test_case "no fd leak across cycles" `Quick
            (requires_socket test_no_fd_leak);
        ] );
    ]
