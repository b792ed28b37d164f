(* Lifecycle and equivalence tests for the process-per-node socket backend
   (Nab_net.Socket): per-round inbox identity against the synchronous
   simulator, crash-mid-round surfacing as a clean Socket_error, the fleet
   pool (close parks, the next create on the graph reuses the fleet, dead
   or mid-round fleets are never reused, per-lease node stats, shutdown
   reaping every node), fd hygiene across create/close cycles and between
   coexisting fleets, and obs JSONL identity with the synchronous run
   (socket at several sampling rates; zero-fault async alongside). The
   run-report differential is gated by bench/socket.exe --check and the
   socket quick campaign. Runs at any NAB_JOBS: fleets are spawned, not
   forked, so Pool domains do not get in the way. *)

(* Must run before anything else: when this binary is re-executed as a
   socket node process it becomes the node's event loop and never returns
   (in particular it never reaches Alcotest.run). *)
let () = Nab_net.Socket.exec_node_if_requested ()

open Nab_graph
open Nab_net

let availability = Socket.available ()

(* Platforms that cannot spawn node processes (or lack working sockets)
   skip — loudly, so a misconfigured CI runner is visible in the logs, but
   green: the gate only binds where the probe says the backend can run at
   all. *)
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

(* Once a fleet is stopped, waitpid on each of its pids must say "not my
   child": anything else is an orphan (or an unreaped zombie). *)
let check_reaped pids =
  List.iter
    (fun pid ->
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> Alcotest.fail (Printf.sprintf "pid %d still running" pid)
      | _ -> Alcotest.fail (Printf.sprintf "pid %d exited but was not reaped" pid)
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ())
    pids

let check_running pids =
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Printf.sprintf "parked node %d still running" pid)
        true
        (fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0))
    pids

(* A lease that runs [rounds] rounds and closes; returns its pids and
   node stats. *)
let lease ?(rounds = 1) g =
  let t = Socket.create g in
  for _ = 1 to rounds do
    run_round (Socket.transport t) ~phase:"r" g
  done;
  Socket.close t;
  (Socket.pids t, Socket.node_stats t)

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
  (* close after a failure stops the fleet, and is idempotent. *)
  Socket.close t;
  Socket.close t;
  check_reaped pids;
  (* A dead fleet refuses further rounds rather than misbehaving. *)
  match run_round tr ~phase:"after" g with
  | () -> Alcotest.fail "round on a failed fleet succeeded"
  | exception Socket.Socket_error _ -> ()

let test_close_parks_shutdown_reaps () =
  let g = k4 () in
  let t = Socket.create g in
  let tr = Socket.transport t in
  let pids = Socket.pids t in
  run_round tr ~phase:"r" g;
  Transport.close tr;
  (* close parks the fleet: its nodes stay up for the next lease. *)
  check_running pids;
  (* The release handshake collected every node's traffic counters: real
     bytes moved on real sockets, and no decode errors at zero faults. *)
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
    stats;
  Socket.shutdown ();
  check_reaped pids

let test_reuse () =
  let g = k4 () in
  let pids1, _ = lease g in
  let pids2, _ = lease g in
  Alcotest.(check (list int)) "second create on the graph leases the same fleet" pids1
    pids2;
  (* A different graph gets its own fleet. *)
  let pids3, _ = lease (Gen.complete ~n:3 ~cap:8) in
  Alcotest.(check bool) "other graph, other fleet" true
    (List.for_all (fun p -> not (List.mem p pids1)) pids3)

(* Wait until [pid] has exited (a zombie until its parent reaps it),
   without reaping it. *)
let wait_exited pid =
  let stat = Printf.sprintf "/proc/%d/stat" pid in
  if not (Sys.file_exists stat) then Unix.sleepf 0.2
  else
    let zombie () =
      match In_channel.with_open_text stat In_channel.input_all with
      | s -> (
          match String.rindex_opt s ')' with
          | Some i -> i + 2 < String.length s && s.[i + 2] = 'Z'
          | None -> false)
      | exception Sys_error _ -> true
    in
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not (zombie ())) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.002
    done

let test_dead_parked_fleet_respawns () =
  let g = k4 () in
  let pids1, _ = lease g in
  let victim = List.nth pids1 1 in
  Unix.kill victim Sys.sigkill;
  wait_exited victim;
  let sim = Sim.factory () ~obs:Nab_obs.null ~keep_events:false g in
  let t = Socket.create g in
  let pids2 = Socket.pids t in
  Alcotest.(check bool) "fresh spawn after a node died while parked" true
    (List.for_all (fun p -> not (List.mem p pids1)) pids2);
  let inbox_sim = Transport.round sim ~phase:"r" (sends g) in
  let inbox_sock = Transport.round (Socket.transport t) ~phase:"r" (sends g) in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d inbox identical to Sim" v)
        true
        (inbox_sim v = inbox_sock v))
    (Digraph.vertices g);
  Socket.close t;
  Transport.close sim;
  check_reaped pids1

let test_mid_round_never_parked () =
  let g = k4 () in
  let t = Socket.create g in
  let pids = Socket.pids t in
  let tr = Socket.transport t in
  run_round tr ~phase:"r" g;
  (match Transport.round tr ~phase:"boom" (fun _ -> failwith "outbox raised") with
  | (_ : int -> (int * Packet.t) list) ->
      Alcotest.fail "round with a raising outbox completed"
  | exception Failure _ -> ());
  Socket.close t;
  check_reaped pids;
  let pids2, _ = lease g in
  Alcotest.(check bool) "next lease spawns afresh" true
    (List.for_all (fun p -> not (List.mem p pids)) pids2)

(* The pool keeps one fleet per graph, and at most four in all: a second
   fleet parked for a graph evicts the first, and a fifth graph evicts the
   oldest parked fleet. *)
let test_pool_bounds () =
  Socket.shutdown ();
  let g = k4 () in
  let t1 = Socket.create g in
  let t2 = Socket.create g in
  Socket.close t1;
  Socket.close t2;
  check_reaped (Socket.pids t1);
  check_running (Socket.pids t2);
  let others = List.map (fun cap -> fst (lease (Gen.complete ~n:3 ~cap))) [ 1; 2; 3 ] in
  check_running (Socket.pids t2);
  List.iter check_running others;
  let _ = lease (Gen.complete ~n:3 ~cap:4) in
  check_reaped (Socket.pids t2);
  List.iter check_running others;
  Socket.shutdown ();
  List.iter check_reaped others

(* A fleet's first lease pays its handshake; later leases count only their
   own rounds (plus the one Release frame each node receives). *)
let test_stats_per_lease () =
  let g = k4 () in
  Socket.shutdown ();
  let pa, a = lease g in
  let pb, b = lease g in
  let pc, c = lease ~rounds:2 g in
  Alcotest.(check bool) "one fleet" true (pa = pb && pb = pc);
  List.iter2
    (fun ((v, a), (_, b)) (_, c) ->
      let open Socket in
      let name = Printf.sprintf "node %d: %s" v in
      Alcotest.(check bool) (name "first lease includes the handshake") true
        (a.frames_sent > b.frames_sent && a.bytes_sent > b.bytes_sent);
      Alcotest.(check int) (name "frames sent scale with rounds") (2 * b.frames_sent)
        c.frames_sent;
      Alcotest.(check int) (name "bytes sent scale with rounds") (2 * b.bytes_sent)
        c.bytes_sent;
      Alcotest.(check int) (name "frames received: rounds + one Release")
        (2 * (b.frames_received - 1))
        (c.frames_received - 1);
      Alcotest.(check int) (name "no decode errors") 0 (a.decode_errors + b.decode_errors + c.decode_errors))
    (List.combine a b) c

let fd_dir pid = Printf.sprintf "/proc/%s/fd" pid

let count_fds () =
  match Sys.readdir (fd_dir "self") with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let test_no_fd_leak () =
  let g = k4 () in
  let cycle () = ignore (lease g) in
  (* One warm-up cycle settles lazy one-time state (signal handling etc.)
     and parks the fleet the measured cycles lease. *)
  cycle ();
  match count_fds () with
  | None -> Printf.printf "SKIP: no /proc/self/fd on this platform\n%!"
  | Some before ->
      for _ = 1 to 5 do
        cycle ()
      done;
      let after = Option.get (count_fds ()) in
      Alcotest.(check int) "fd count stable across leases of a parked fleet" before
        after

(* The sockets a process holds, as "socket:[inode]" link targets. *)
let sockets pid =
  let dir = fd_dir pid in
  Array.fold_left
    (fun acc fd ->
      match Unix.readlink (Filename.concat dir fd) with
      | target when String.starts_with ~prefix:"socket:" target -> target :: acc
      | _ | (exception Unix.Unix_error _) -> acc)
    [] (Sys.readdir dir)

(* Every coordinator fd is close-on-exec: a node spawned for a second
   fleet must not inherit the first fleet's control channels (it would
   hide their EOF from the first fleet's nodes). *)
let test_no_inherited_fds () =
  if not (Sys.file_exists (fd_dir "self")) then
    Printf.printf "SKIP: no /proc/self/fd on this platform\n%!"
  else begin
    Socket.shutdown ();
    let before = sockets "self" in
    let t1 = Socket.create (k4 ()) in
    let first = List.filter (fun s -> not (List.mem s before)) (sockets "self") in
    Alcotest.(check bool) "first fleet's control sockets visible" true
      (List.length first >= 4);
    let t2 = Socket.create (Gen.complete ~n:3 ~cap:8) in
    List.iter
      (fun pid ->
        let held = sockets (string_of_int pid) in
        Alcotest.(check (list string))
          (Printf.sprintf "node %d of the second fleet holds no fd of the first" pid)
          []
          (List.filter (fun s -> List.mem s first) held))
      (Socket.pids t2);
    Socket.close t2;
    Socket.close t1;
    Socket.shutdown ()
  end

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
          Alcotest.test_case "close parks and shutdown reaps" `Quick
            (requires_socket test_close_parks_shutdown_reaps);
          Alcotest.test_case "no fd leak across cycles" `Quick
            (requires_socket test_no_fd_leak);
        ] );
      ( "fleet pool",
        [
          Alcotest.test_case "same graph reuses the fleet" `Quick
            (requires_socket test_reuse);
          Alcotest.test_case "node dead while parked: fresh spawn" `Quick
            (requires_socket test_dead_parked_fleet_respawns);
          Alcotest.test_case "mid-round lease never parked" `Quick
            (requires_socket test_mid_round_never_parked);
          Alcotest.test_case "one fleet per graph, oldest evicted" `Quick
            (requires_socket test_pool_bounds);
          Alcotest.test_case "node stats per lease" `Quick
            (requires_socket test_stats_per_lease);
          Alcotest.test_case "no fd inherited across fleets" `Quick
            (requires_socket test_no_inherited_fds);
        ] );
    ]
