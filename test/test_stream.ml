(* Nab_stream vs the serial driver: the streaming session layer must be a
   pure scheduling transformation — decisions, disputes and graph evolution
   byte-identical to running Nab.session_broadcast q times, on both
   transport backends, whatever the window/batch geometry. *)

open Nab_graph
open Nab_core
open Nab_net

let k4 = Gen.complete ~n:4 ~cap:2
let k7 = Gen.complete ~n:7 ~cap:1
let chords7 = Gen.ring_with_chords ~n:7 ~cap:2 ~chord_cap:2
let dumbbell = Gen.dumbbell ~clique:3 ~clique_cap:4 ~bridge_cap:1

let input_fn ~l ~seed k =
  let st = Random.State.make [| seed; k |] in
  Bitvec.init l (fun _ -> Random.State.bool st)

let check_instance ~label (a : Nab.instance_report) (b : Nab.instance_report) =
  let pre = Printf.sprintf "%s k=%d" label a.Nab.k in
  Alcotest.(check int) (pre ^ " k") a.Nab.k b.Nab.k;
  Alcotest.(check int) (pre ^ " value_bits") a.Nab.value_bits b.Nab.value_bits;
  Alcotest.(check int) (pre ^ " gamma") a.Nab.gamma_k b.Nab.gamma_k;
  Alcotest.(check int) (pre ^ " rho") a.Nab.rho_k b.Nab.rho_k;
  Alcotest.(check bool) (pre ^ " mismatch") a.Nab.mismatch b.Nab.mismatch;
  Alcotest.(check bool) (pre ^ " dc_run") a.Nab.dc_run b.Nab.dc_run;
  Alcotest.(check bool)
    (pre ^ " reduced")
    a.Nab.reduced_to_phase1 b.Nab.reduced_to_phase1;
  Alcotest.(check (list (pair int string)))
    (pre ^ " decisions")
    (List.map (fun (v, bv) -> (v, Bitvec.to_hex bv)) a.Nab.decisions)
    (List.map (fun (v, bv) -> (v, Bitvec.to_hex bv)) b.Nab.decisions);
  Alcotest.(check int)
    (pre ^ " new_disputes")
    (List.length a.Nab.new_disputes)
    (List.length b.Nab.new_disputes);
  List.iter2
    (fun (x, y) (x', y') ->
      Alcotest.(check (pair int int)) (pre ^ " dispute pair") (x, y) (x', y'))
    a.Nab.new_disputes b.Nab.new_disputes

let check_equiv ?(transport = Sim.default_factory) ?window ?flag_batch ?(agree = false) ~g
    ~config ~adversary ~q ~label () =
  let inputs = input_fn ~l:config.Nab.l_bits ~seed:(17 + q) in
  let serial = Nab.run ~transport ~g ~config ~adversary ~inputs ~q () in
  if agree then
    Alcotest.(check bool) (label ^ " serial agreement") true (Nab.fault_free_agree serial);
  let stream =
    Nab_stream.run ~transport ?window ?flag_batch ~g ~config ~adversary ~inputs ~q ()
  in
  let s = stream.Nab_stream.run in
  Alcotest.(check int)
    (label ^ " instance count")
    (List.length serial.Nab.instances)
    (List.length s.Nab.instances);
  List.iter2 (fun a b -> check_instance ~label a b) serial.Nab.instances s.Nab.instances;
  Alcotest.(check int) (label ^ " dc_count") serial.Nab.dc_count s.Nab.dc_count;
  Alcotest.(check int)
    (label ^ " disputes")
    (List.length serial.Nab.disputes)
    (List.length s.Nab.disputes);
  Alcotest.(check bool)
    (label ^ " final graph")
    true
    (Digraph.equal serial.Nab.final_graph s.Nab.final_graph)

(* Adversaries whose step-2.2/DC hooks are honest: safe under flag batching. *)
let batch_safe =
  [
    ("none", Adversary.none);
    ("dormant", Adversary.dormant);
    ("crash", Adversary.crash);
    ("phase1-corrupt", Adversary.phase1_corrupt);
    ("source-equivocate", Adversary.source_equivocate);
    ("ec-liar", Adversary.ec_liar);
    ("stealthy", Adversary.stealthy);
  ]

(* Flag/DC-tampering adversaries need flag_batch = 1 for exact fidelity. *)
let serial_only = [ ("false-flag", Adversary.false_flag); ("dc-frame", Adversary.dc_frame) ]

let test_stream_matches_serial_sync () =
  let config = Nab.config ~l_bits:256 ~m:8 () in
  List.iter
    (fun (name, adversary) ->
      List.iter
        (fun (g, gname) ->
          check_equiv ~g ~config ~adversary ~q:6
            ~label:(Printf.sprintf "%s/%s" name gname)
            ())
        [ (k4, "K4"); (chords7, "chords7"); (dumbbell, "dumbbell") ])
    batch_safe

let test_stream_matches_serial_flagged () =
  let config = Nab.config ~l_bits:256 ~m:8 () in
  List.iter
    (fun (name, adversary) ->
      check_equiv ~g:k4 ~config ~adversary ~q:6 ~flag_batch:1
        ~label:(name ^ "/K4/batch1") ())
    serial_only

let test_stream_matches_serial_async () =
  let transport = Async_sim.factory () in
  let config = Nab.config ~l_bits:256 ~m:8 () in
  List.iter
    (fun (name, adversary) ->
      check_equiv ~transport ~g:k4 ~config ~adversary ~q:5
        ~label:(name ^ "/K4/async") ())
    [ ("none", Adversary.none); ("ec-liar", Adversary.ec_liar) ];
  check_equiv ~transport ~g:chords7 ~config ~adversary:Adversary.stealthy ~q:5
    ~label:"stealthy/chords7/async" ()

let test_stream_window_geometry () =
  (* The schedule must not affect decisions: every window/batch split
     agrees with the serial run, including window = 1 (pure admission
     serialisation) and a window wider than the queue. *)
  let config = Nab.config ~l_bits:128 ~m:8 () in
  List.iter
    (fun (window, flag_batch) ->
      check_equiv ~g:k4 ~config ~adversary:Adversary.ec_liar ~q:7 ~window ?flag_batch
        ~label:(Printf.sprintf "w%d" window)
        ())
    [ (1, None); (2, Some 1); (3, Some 2); (16, None) ]

let test_stream_matches_serial_phase_king () =
  (* Step 2.2 on Phase-King: n > 4f on both graphs, so neither driver
     falls back to EIG. *)
  List.iter
    (fun (g, gname, f) ->
      let config = Nab.config ~f ~l_bits:128 ~m:8 ~flag_backend:`Phase_king () in
      List.iter
        (fun (name, adversary) ->
          List.iter
            (fun (window, flag_batch) ->
              let label =
                Printf.sprintf "%s/%s/pk/w%s/b%s" name gname
                  (Option.fold ~none:"-" ~some:string_of_int window)
                  (Option.fold ~none:"-" ~some:string_of_int flag_batch)
              in
              check_equiv ~g ~config ~adversary ~q:6 ?window ?flag_batch ~agree:true ~label
                ())
            [ (None, None); (Some 4, None); (Some 8, Some 4); (Some 8, Some 1) ])
        [
          ("none", Adversary.none);
          ("ec-liar", Adversary.ec_liar);
          ("stealthy", Adversary.stealthy);
          ("phase1-corrupt", Adversary.phase1_corrupt);
        ])
    [ (Gen.complete ~n:6 ~cap:1, "K6", 1); (Gen.complete ~n:9 ~cap:1, "K9", 2) ]

let test_stream_f2_exclusion () =
  (* f = 2 on K7: stealthy triggers repeated dispute control, eventually
     excluding nodes; rollback must track the graph evolution exactly. *)
  let config = Nab.config ~f:2 ~l_bits:64 ~m:4 () in
  check_equiv ~g:k7 ~config ~adversary:Adversary.stealthy ~q:10 ~window:4
    ~label:"stealthy/K7/f2" ()

let test_stream_backpressure () =
  let config = Nab.config ~l_bits:128 ~m:8 () in
  let t =
    Nab_stream.create ~window:2 ~g:k4 ~config ~adversary:Adversary.none ()
  in
  let inputs = input_fn ~l:128 ~seed:3 in
  for k = 1 to 9 do
    ignore (Nab_stream.submit t (inputs k))
  done;
  Alcotest.(check bool) "backpressure queues" true (Nab_stream.pending t > 2);
  Nab_stream.drain t;
  Alcotest.(check int) "all finalized" 0 (Nab_stream.pending t);
  let r = Nab_stream.report t in
  Alcotest.(check int) "delivered" 9 r.Nab_stream.delivered;
  Alcotest.(check bool) "agreement" true (Nab.fault_free_agree r.Nab_stream.run);
  Alcotest.(check bool) "validity" true
    (Nab.valid_outputs r.Nab_stream.run ~inputs)

let test_stream_multi_source () =
  (* Values submitted from several origins in one session: agreement and
     validity hold per instance, ids stay dense, plans are cached per
     (graph, source). *)
  let config = Nab.config ~l_bits:128 ~m:8 () in
  let t = Nab_stream.create ~g:chords7 ~config ~adversary:Adversary.none () in
  let inputs = input_fn ~l:128 ~seed:11 in
  let sources = [| 1; 3; 5; 1; 7 |] in
  Array.iteri (fun i s -> ignore (Nab_stream.submit t ~source:s (inputs i))) sources;
  Nab_stream.drain t;
  let r = Nab_stream.report t in
  Alcotest.(check int) "delivered" 5 r.Nab_stream.delivered;
  Alcotest.(check bool) "agreement" true (Nab.fault_free_agree r.Nab_stream.run);
  let by_k =
    List.sort
      (fun (a : Nab.instance_report) b -> compare a.Nab.k b.Nab.k)
      r.Nab_stream.run.Nab.instances
  in
  List.iteri
    (fun i (inst : Nab.instance_report) ->
      Alcotest.(check int) "dense ids" (i + 1) inst.Nab.k;
      let expect = Bitvec.to_hex (inputs i) in
      List.iter
        (fun (_, bv) ->
          Alcotest.(check string) "multi-source validity" expect (Bitvec.to_hex bv))
        inst.Nab.decisions)
    by_k

let test_stream_goodput_amortizes () =
  (* The whole point: a long queue beats one-at-a-time serial broadcast. *)
  let config = Nab.config ~l_bits:512 ~m:8 () in
  let inputs = input_fn ~l:512 ~seed:5 in
  let serial = Nab.run ~g:chords7 ~config ~adversary:Adversary.none ~inputs ~q:8 () in
  let stream =
    Nab_stream.run ~g:chords7 ~config ~adversary:Adversary.none ~inputs ~q:8 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "stream %.0f < serial %.0f" stream.Nab_stream.wall
       serial.Nab.total_wall)
    true
    (stream.Nab_stream.wall < serial.Nab.total_wall)

(* Figure 3 on the stream: q fault-free instances admitted at once. Every
   instance stays on G_1, so L/gamma_1 + L/rho_1 bounds the per-instance
   time from below. After exclusions it does not: Phase-1-only instances
   cost less than the round core. *)
let test_stream_pipelined_g1_floor () =
  let g = Gen.dumbbell ~clique:3 ~clique_cap:4 ~bridge_cap:2 in
  let config = Nab.config ~l_bits:2048 ~m:16 () in
  let inputs = input_fn ~l:2048 ~seed:31 in
  let pipelined q =
    let r = Nab_stream.run ~window:q ~g ~config ~adversary:Adversary.none ~inputs ~q () in
    let run = r.Nab_stream.run in
    Alcotest.(check int) (Printf.sprintf "q=%d delivered" q) q r.Nab_stream.delivered;
    Alcotest.(check bool) (Printf.sprintf "q=%d agreed and valid" q) true
      (Nab.fault_free_agree run
      && Nab.valid_outputs run ~inputs
      && List.for_all (fun (i : Nab.instance_report) -> not i.Nab.mismatch) run.Nab.instances);
    (r, r.Nab_stream.wall /. float_of_int q)
  in
  let _, per1 = pipelined 1 in
  let r8, per8 = pipelined 8 in
  Alcotest.(check bool) "pipeline amortises" true (per8 < per1);
  let inst = List.hd r8.Nab_stream.run.Nab.instances in
  let round_core =
    float_of_int inst.Nab.value_bits
    *. ((1.0 /. float_of_int inst.Nab.gamma_k) +. (1.0 /. float_of_int inst.Nab.rho_k))
  in
  Alcotest.(check bool)
    (Printf.sprintf "per-instance %.0f >= G_1 round core %.0f" per8 round_core)
    true
    (per8 >= round_core -. 1e-9);
  let serial = Nab.run ~g ~config ~adversary:Adversary.none ~inputs ~q:8 () in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined %.0f < serial %.0f" r8.Nab_stream.wall serial.Nab.total_wall)
    true
    (r8.Nab_stream.wall < serial.Nab.total_wall)

(* A transport that puts packets the stream must ignore at the front of
   every stream-data inbox: labels of other protocols and malformed stream
   labels, many copies each (so a label misread as instance 1's would
   drive its counts far off), and — once a rollback has bumped the epoch —
   every stream packet sent under an older epoch, delivered again. *)
let injecting (base : Transport.factory) : Transport.factory =
 fun ~obs ~keep_events g ->
  let foreign =
    List.concat_map
      (fun proto -> List.init 16 (fun _ -> Packet.direct ~proto ~origin:0 ~dst:0 Wire.Nothing))
      [ "p1:0"; "sp1:x:0:0"; "sec:1"; "sec:1:"; "sp1:1:0"; "sp1:1:0:0:0"; "sec:-1:0"; "eq" ]
  in
  (* Every stream packet sent so far, with its epoch. *)
  let sent = ref [] and max_epoch = ref 0 in
  let epoch_of (pkt : Packet.t) =
    match String.split_on_char ':' pkt.Packet.proto with
    | [ "sp1"; _; e; _ ] | [ "sec"; _; e ] -> int_of_string_opt e
    | _ -> None
  in
  let record (pkt : Packet.t) =
    match epoch_of pkt with
    | Some e ->
        max_epoch := max !max_epoch e;
        sent := (e, pkt) :: !sent
    | None -> ()
  in
  let inject inbox v =
    let stale = List.filter_map (fun (e, p) -> if e < !max_epoch then Some p else None) !sent in
    List.map (fun p -> (0, p)) (foreign @ stale) @ inbox v
  in
  let module M = struct
    type t = Transport.t

    let graph = Transport.graph
    let obs = Transport.obs

    let round t ~phase outbox =
      if phase <> "stream-data" then Transport.round t ~phase outbox
      else
        let outbox v =
          let out = outbox v in
          List.iter (fun (_, p) -> record p) out;
          out
        in
        inject (Transport.round t ~phase outbox)

    let pending_count = Transport.pending_count

    let drain t ~phase =
      if phase <> "stream-data" then Transport.drain t ~phase
      else inject (Transport.drain t ~phase)

    let add_cost = Transport.add_cost
    let timing = Transport.timing
    let link_bits = Transport.link_bits
    let dropped = Transport.dropped
    let utilization = Transport.utilization
    let events_of_phase = Transport.events_of_phase
    let keeps_events = Transport.keeps_events
    let rounds_run = Transport.rounds_run
    let close = Transport.close
  end in
  Transport.pack (module M) (base ~obs ~keep_events g)

let test_stream_ignores_foreign_labels () =
  let config = Nab.config ~f:2 ~l_bits:64 ~m:4 () in
  let inputs = input_fn ~l:64 ~seed:29 in
  let run transport =
    Nab_stream.run ~transport ~window:4 ~g:k7 ~config ~adversary:Adversary.stealthy ~inputs
      ~q:10 ()
  in
  let plain = run Sim.default_factory and noisy = run (injecting Sim.default_factory) in
  Alcotest.(check bool) "a rollback bumped the epoch" true (plain.Nab_stream.rollbacks > 0);
  Alcotest.(check string) "same run report"
    (Nab_obs.Json.to_string (Report.run_to_json plain.Nab_stream.run))
    (Nab_obs.Json.to_string (Report.run_to_json noisy.Nab_stream.run));
  Alcotest.(check (list int)) "same data rounds, flag batches, rollbacks"
    [ plain.Nab_stream.data_rounds; plain.Nab_stream.flag_batches; plain.Nab_stream.rollbacks ]
    [ noisy.Nab_stream.data_rounds; noisy.Nab_stream.flag_batches; noisy.Nab_stream.rollbacks ];
  Alcotest.(check (float 0.0)) "same wall" plain.Nab_stream.wall noisy.Nab_stream.wall

let () =
  Alcotest.run "stream"
    [
      ( "equivalence",
        [
          Alcotest.test_case "sync backend, batch-safe zoo" `Quick
            test_stream_matches_serial_sync;
          Alcotest.test_case "flag adversaries at flag_batch=1" `Quick
            test_stream_matches_serial_flagged;
          Alcotest.test_case "async backend" `Quick test_stream_matches_serial_async;
          Alcotest.test_case "window/batch geometry" `Quick
            test_stream_window_geometry;
          Alcotest.test_case "f=2 exclusions" `Quick test_stream_f2_exclusion;
          Alcotest.test_case "phase-king flags" `Quick
            test_stream_matches_serial_phase_king;
        ] );
      ( "stream",
        [
          Alcotest.test_case "backpressure window" `Quick test_stream_backpressure;
          Alcotest.test_case "multi-source session" `Quick test_stream_multi_source;
          Alcotest.test_case "goodput amortizes" `Quick test_stream_goodput_amortizes;
          Alcotest.test_case "pipelined q=8, fault-free G_1 floor" `Quick
            test_stream_pipelined_g1_floor;
          Alcotest.test_case "foreign and stale labels ignored" `Quick
            test_stream_ignores_foreign_labels;
        ] );
    ]
