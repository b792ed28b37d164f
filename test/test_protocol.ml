(* End-to-end protocol tests: Phase1, Dispute control, and the full NAB
   driver under the whole adversary zoo. *)

open Nab_graph
open Nab_net
open Nab_core

let k4 = Gen.complete ~n:4 ~cap:2
let k5 = Gen.complete ~n:5 ~cap:2
let k7 = Gen.complete ~n:7 ~cap:1

let chords7 = Gen.ring_with_chords ~n:7 ~cap:2 ~chord_cap:2

let dumbbell = Gen.dumbbell ~clique:3 ~clique_cap:4 ~bridge_cap:1

let input_fn ~l ~seed = Bitvec.random_stream l (Random.State.make [| seed |])

(* ---------- Phase 1 ---------- *)

let test_phase1_fault_free () =
  List.iter
    (fun (g, name) ->
      let gamma = Params.gamma_k g ~source:1 in
      let trees = Arborescence.pack g ~root:1 ~k:gamma in
      let l = 24 * gamma in
      let value = Bitvec.random l (Random.State.make [| 3 |]) in
      let sim = Sim.create g ~bits:Packet.bits in
      let received =
        Phase1.run ~net:(Sim.transport sim) ~phase:"phase1" ~trees ~source:1 ~value ~faulty:Vset.empty ()
      in
      let sizes = Phase1.slice_sizes ~value_bits:l ~trees:gamma in
      List.iter
        (fun v ->
          if v <> 1 then
            Alcotest.(check bool)
              (Printf.sprintf "%s: node %d assembled" name v)
              true
              (Bitvec.equal value (Phase1.assemble ~slice_sizes:sizes (received v))))
        (Digraph.vertices g);
      (* Pipelined Phase-1 cost per hop is at most L/gamma. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: bottleneck <= L/gamma" name)
        true
        ((Sim.timing sim).Sim.pipelined <= (float_of_int l /. float_of_int gamma) +. 1e-9))
    [ (k4, "K4"); (chords7, "chords7"); (Gen.figure2, "fig2"); (dumbbell, "dumbbell") ]

let test_phase1_corruption_is_local () =
  (* A faulty node corrupts tree t: only its descendants on tree t are
     affected, and only in slice t. *)
  let g = k4 in
  let gamma = Params.gamma_k g ~source:1 in
  let trees = Arborescence.pack g ~root:1 ~k:gamma in
  let l = 8 * gamma in
  let value = Bitvec.random l (Random.State.make [| 4 |]) in
  let sim = Sim.create g ~bits:Packet.bits in
  let adversary ~me:_ ~tree ~dst:_ payload =
    if tree = 0 then
      match payload with
      | Wire.Value { bits; data } ->
          let data = Array.copy data in
          data.(0) <- data.(0) lxor 0xff;
          Some (Wire.Value { bits; data })
      | p -> Some p
    else Some payload
  in
  let received =
    Phase1.run ~net:(Sim.transport sim) ~phase:"phase1" ~trees ~source:1 ~value ~faulty:(Vset.singleton 3)
      ~adversary ()
  in
  let sizes = Phase1.slice_sizes ~value_bits:l ~trees:gamma in
  let slices = Bitvec.split_balanced value ~parts:gamma in
  let tree0 = List.hd trees in
  List.iter
    (fun v ->
      if v <> 1 then begin
        let per_tree = received v in
        (* Trees other than 0 deliver intact slices everywhere. *)
        List.iteri
          (fun t slice ->
            if t > 0 then
              Alcotest.(check bool)
                (Printf.sprintf "node %d tree %d intact" v t)
                true
                (Bitvec.equal slice
                   (Phase1.payload_slice ~slice_bits:sizes.(t)
                      (Some (Option.get per_tree.(t))))))
          slices;
        (* Tree 0: corrupted iff 3 is a strict ancestor of v on tree 0. *)
        let rec ancestor a v =
          match Arborescence.parent tree0 v with
          | None -> false
          | Some p -> p = a || ancestor a p
        in
        let got0 = Phase1.payload_slice ~slice_bits:sizes.(0) per_tree.(0) in
        let expected_corrupt = ancestor 3 v in
        Alcotest.(check bool)
          (Printf.sprintf "node %d tree 0 corruption" v)
          expected_corrupt
          (not (Bitvec.equal (List.hd slices) got0))
      end)
    (Digraph.vertices g)

let test_phase1_timing_matches_paper () =
  (* On fig2 (gamma = 2), unit capacities on tree edges: Phase 1 of an
     L-bit value takes L/2 per hop; the deepest tree has 2 hops. *)
  let g = Gen.figure2 in
  let trees = Arborescence.pack g ~root:1 ~k:2 in
  let l = 32 in
  let value = Bitvec.random l (Random.State.make [| 5 |]) in
  let sim = Sim.create g ~bits:Packet.bits in
  let (_ : int -> Wire.payload option array) =
    Phase1.run ~net:(Sim.transport sim) ~phase:"phase1" ~trees ~source:1 ~value ~faulty:Vset.empty ()
  in
  Alcotest.(check (float 1e-9)) "bottleneck = L/gamma" 16.0 ((Sim.timing sim).Sim.pipelined)

let test_phase1_run_drains_delayed_final_hop () =
  (* A 2-round delay on the final hop of the line 1 -> 2 -> 3: the slice
     node 2 forwards in round 2 is still in flight when the scheduled
     variant's depth-many rounds are done. The seed [Phase1.run] returned
     with that message stranded in the simulator and node 3 reassembled
     zeros; [run] must drain in-flight traffic before returning. *)
  let g = Digraph.of_edges [ (1, 2, 1); (2, 1, 1); (2, 3, 1); (3, 2, 1) ] in
  let trees = Arborescence.pack g ~root:1 ~k:1 in
  let l = 16 in
  let value = Bitvec.random l (Random.State.make [| 21 |]) in
  let sizes = Phase1.slice_sizes ~value_bits:l ~trees:1 in
  let delays (src, dst) = if (src, dst) = (2, 3) then 2 else 0 in
  let sim = Sim.create ~delays g ~bits:Packet.bits in
  let received =
    Phase1.run ~net:(Sim.transport sim) ~phase:"p1" ~trees ~source:1 ~value ~faulty:Vset.empty ()
  in
  Alcotest.(check int) "nothing stranded" 0 (Sim.pending_count sim);
  Alcotest.(check bool) "node 3 reassembles the value" true
    (Bitvec.equal value (Phase1.assemble ~slice_sizes:sizes (received 3)))

(* ---------- RLNC alternative Phase 1 ---------- *)

let test_rlnc_decodes_everywhere () =
  List.iter
    (fun (name, g) ->
      let gamma = Params.gamma_k g ~source:1 in
      let m = 8 in
      let l = gamma * m * 4 in
      let value = Bitvec.random l (Random.State.make [| 7 |]) in
      let sim = Sim.create g ~bits:Packet.bits in
      let r = Rlnc.broadcast ~net:(Sim.transport sim) ~phase:"rlnc" ~source:1 ~value ~gamma ~m ~seed:3 () in
      Alcotest.(check bool) (name ^ ": all decoded") true r.Rlnc.all_decoded;
      List.iter
        (fun (v, d) ->
          match d with
          | Some d ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: node %d correct" name v)
                true (Bitvec.equal d value)
          | None -> Alcotest.fail (Printf.sprintf "%s: node %d undecoded" name v))
        r.Rlnc.decoded;
      Alcotest.(check bool) (name ^ ": headers accounted") true (r.Rlnc.header_bits > 0);
      (* The generation needs at least gamma innovative packets and one round
         per hop; a handful of rounds must suffice on these graphs. *)
      Alcotest.(check bool) (name ^ ": few rounds") true (r.Rlnc.rounds <= 8))
    [
      ("K4", k4);
      ("fig2", Gen.figure2);
      ("chords7", chords7);
      ("dumbbell", dumbbell);
    ]

let test_rlnc_random_graphs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20 ~name:"RLNC decodes on random feasible graphs"
       (QCheck2.Gen.int_range 0 400)
       (fun seed ->
         let g = Gen.random_bb_feasible ~n:5 ~f:1 ~p:0.8 ~min_cap:1 ~max_cap:3 ~seed in
         let gamma = Params.gamma_k g ~source:1 in
         let value = Bitvec.random (gamma * 8 * 2) (Random.State.make [| seed |]) in
         let sim = Sim.create g ~bits:Packet.bits in
         let r =
           Rlnc.broadcast ~net:(Sim.transport sim) ~phase:"rlnc" ~source:1 ~value ~gamma ~m:8 ~seed ()
         in
         r.Rlnc.all_decoded
         && List.for_all
              (fun (_, d) -> match d with Some d -> Bitvec.equal d value | None -> false)
              r.Rlnc.decoded))

let test_rlnc_validates_input () =
  let sim = Sim.create k4 ~bits:Packet.bits in
  Alcotest.check_raises "length must divide"
    (Invalid_argument "Rlnc.broadcast: value length must be a positive multiple of gamma * m")
    (fun () ->
      ignore
        (Rlnc.broadcast ~net:(Sim.transport sim) ~phase:"rlnc" ~source:1 ~value:(Bitvec.create 33) ~gamma:2
           ~m:8 ~seed:1 ()))

(* ---------- Dispute control unit behaviour ---------- *)

let run_nab ?(g = k4) ?(q = 5) ?(l = 256) ?(m = 8) ?(f = 1) ?(backend = `Eig) adv =
  let config = Nab.config ~f ~l_bits:l ~m ~flag_backend:backend () in
  let inputs = input_fn ~l ~seed:17 in
  (Nab.run ~g ~config ~adversary:adv ~inputs ~q (), inputs)

(* Synthetic DC2/DC3 scenarios against the pure analyse function. *)
let make_dc_ctx () =
  let g = k4 in
  let gamma = Params.gamma_k g ~source:1 in
  let rho = Params.rho_k g ~total_n:4 ~f:1 ~disputes:[] in
  let trees = Arborescence.pack g ~root:1 ~k:gamma in
  let omega = Params.omega_k g ~total_n:4 ~f:1 ~disputes:[] in
  let coding, _ = Coding.generate_correct g ~omega ~rho ~m:8 ~seed:5 () in
  let value_bits = rho * 8 in
  let value = Bitvec.random value_bits (Random.State.make [| 2 |]) in
  ( {
      Dispute.gk = g;
      total_n = 4;
      f = 1;
      source = 1;
      trees;
      coding;
      value_bits;
      flags = List.map (fun v -> (v, false)) (Digraph.vertices g);
    },
    value )

(* The claims a fully honest execution would produce, built directly from
   the protocol's expected behaviour. *)
let honest_claims_for ctx value =
  let trees = ctx.Dispute.trees in
  let slices = Bitvec.split_balanced value ~parts:(List.length trees) in
  let m = Nab_field.Gf2p.degree (Coding.field ctx.Dispute.coding) in
  let x = Bitvec.to_symbols value ~sym_bits:m in
  let claim ~proto ~src ~dst ~dir body =
    { Wire.c_phase = proto; c_round = 0; c_src = src; c_dst = dst; c_dir = dir; c_body = body }
  in
  let p1 =
    List.concat
      (List.mapi
         (fun t tree ->
           let payload = Phase1.slice_payload (List.nth slices t) in
           List.concat_map
             (fun (parent, child) ->
               [
                 claim ~proto:(Phase1.tree_proto t) ~src:parent ~dst:child ~dir:Wire.Sent
                   payload;
                 claim ~proto:(Phase1.tree_proto t) ~src:parent ~dst:child
                   ~dir:Wire.Received payload;
               ])
             tree)
         trees)
  in
  let ec =
    Digraph.fold_edges
      (fun s d _ acc ->
        let payload = Equality_check.expected_send ctx.Dispute.coding ~edge:(s, d) ~x in
        claim ~proto:Equality_check.proto ~src:s ~dst:d ~dir:Wire.Sent payload
        :: claim ~proto:Equality_check.proto ~src:s ~dst:d ~dir:Wire.Received payload
        :: acc)
      ctx.Dispute.gk []
  in
  let all = p1 @ ec in
  fun v ->
    List.filter (fun (c : Wire.claim) -> c.Wire.c_src = v && c.Wire.c_dir = Wire.Sent
                                          || c.Wire.c_dst = v && c.Wire.c_dir = Wire.Received)
      all

let test_analyse_consistent_claims () =
  let ctx, value = make_dc_ctx () in
  let claims = honest_claims_for ctx value in
  let verdict = Dispute.analyse ~ctx ~claims ~agreed_input:value in
  Alcotest.(check (list (pair int int))) "no disputes" [] verdict.Dispute.new_disputes;
  Alcotest.(check (list int)) "nobody convicted" []
    (Vset.elements verdict.Dispute.provably_faulty);
  Alcotest.(check bool) "output is the input" true
    (Bitvec.equal verdict.Dispute.output value)

let test_analyse_dc2_mismatch () =
  let ctx, value = make_dc_ctx () in
  let base = honest_claims_for ctx value in
  (* Node 3's claimed reception from node 2 on the EC is tampered. *)
  let claims v =
    if v <> 3 then base v
    else
      List.map
        (fun (c : Wire.claim) ->
          if c.Wire.c_dir = Wire.Received && c.Wire.c_src = 2 && c.Wire.c_phase = Equality_check.proto
          then { c with Wire.c_body = Wire.Nothing }
          else c)
        (base v)
  in
  (* Node 3's lie makes its EC replay expect a MISMATCH flag it never
     announced, so DC3 convicts it; the {2,3} DC2 dispute also appears. *)
  let verdict = Dispute.analyse ~ctx ~claims ~agreed_input:value in
  Alcotest.(check bool) "dispute {2,3} found" true
    (List.mem (2, 3) verdict.Dispute.new_disputes);
  Alcotest.(check (list int)) "node 3 convicted by flag replay" [ 3 ]
    (Vset.elements verdict.Dispute.provably_faulty)

let test_analyse_dc3_lying_sender () =
  let ctx, value = make_dc_ctx () in
  let base = honest_claims_for ctx value in
  (* Node 2 claims EC sends inconsistent with its claimed receptions. *)
  let claims v =
    if v <> 2 then base v
    else
      List.map
        (fun (c : Wire.claim) ->
          if c.Wire.c_dir = Wire.Sent && c.Wire.c_src = 2 && c.Wire.c_phase = Equality_check.proto
          then { c with Wire.c_body = Wire.Nothing }
          else c)
        (base v)
  in
  let verdict = Dispute.analyse ~ctx ~claims ~agreed_input:value in
  Alcotest.(check bool) "node 2 convicted" true
    (Vset.mem 2 verdict.Dispute.provably_faulty);
  Alcotest.(check bool) "convict disputed with all neighbours" true
    (List.for_all
       (fun nbr -> List.mem (Params.norm_dispute 2 nbr) verdict.Dispute.new_disputes)
       (Digraph.neighbors ctx.Dispute.gk 2))

let test_analyse_false_flag_convicted () =
  let ctx, value = make_dc_ctx () in
  let ctx = { ctx with Dispute.flags = [ (1, false); (2, false); (3, true); (4, false) ] } in
  let claims = honest_claims_for ctx value in
  (* Node 3 announced MISMATCH although its own claims justify NULL. *)
  let verdict = Dispute.analyse ~ctx ~claims ~agreed_input:value in
  Alcotest.(check (list int)) "false flagger convicted" [ 3 ]
    (Vset.elements verdict.Dispute.provably_faulty)

let test_honest_never_convicted () =
  (* Under every adversary, dispute control must never classify a fault-free
     node as necessarily faulty (soundness of DC3/DC4). *)
  List.iter
    (fun (name, adv) ->
      let report, _ = run_nab adv in
      let survivors = Digraph.vertex_set report.Nab.final_graph in
      List.iter
        (fun v ->
          if not (Vset.mem v report.Nab.faulty) then
            Alcotest.(check bool)
              (Printf.sprintf "%s: honest %d survives" name v)
              true (Vset.mem v survivors))
        (Digraph.vertices k4))
    Adversary.all

let test_disputes_always_involve_faulty () =
  List.iter
    (fun (name, adv) ->
      let report, _ = run_nab adv in
      List.iter
        (fun (a, b) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: dispute {%d,%d} touches a faulty node" name a b)
            true
            (Vset.mem a report.Nab.faulty || Vset.mem b report.Nab.faulty))
        report.Nab.disputes)
    Adversary.all

(* ---------- NAB end-to-end: agreement, validity, budget ---------- *)

let test_nab_all_adversaries_k4 () =
  List.iter
    (fun (name, adv) ->
      let report, inputs = run_nab adv in
      Alcotest.(check bool) (name ^ ": agreement") true (Nab.fault_free_agree report);
      Alcotest.(check bool) (name ^ ": validity") true
        (Nab.valid_outputs report ~inputs);
      Alcotest.(check bool) (name ^ ": DC budget") true
        (report.Nab.dc_count <= 1 * (1 + 1)))
    Adversary.all

let test_nab_all_adversaries_chords7 () =
  List.iter
    (fun (name, adv) ->
      let report, inputs = run_nab ~g:chords7 ~q:4 ~l:128 adv in
      Alcotest.(check bool) (name ^ ": agreement") true (Nab.fault_free_agree report);
      Alcotest.(check bool) (name ^ ": validity") true (Nab.valid_outputs report ~inputs))
    Adversary.all

let test_nab_f2_k7 () =
  List.iter
    (fun (name, adv) ->
      let report, inputs = run_nab ~g:k7 ~q:4 ~l:64 ~f:2 adv in
      Alcotest.(check bool) (name ^ ": agreement") true (Nab.fault_free_agree report);
      Alcotest.(check bool) (name ^ ": validity") true (Nab.valid_outputs report ~inputs);
      Alcotest.(check bool) (name ^ ": DC budget f(f+1)") true (report.Nab.dc_count <= 6))
    Adversary.all

let test_nab_phase_king_backend () =
  List.iter
    (fun (name, adv) ->
      let report, inputs = run_nab ~g:k5 ~backend:`Phase_king adv in
      Alcotest.(check bool) (name ^ ": pk agreement") true (Nab.fault_free_agree report);
      Alcotest.(check bool) (name ^ ": pk validity") true
        (Nab.valid_outputs report ~inputs))
    [ ("none", Adversary.none); ("crash", Adversary.crash); ("ec-liar", Adversary.ec_liar) ]

let test_nab_dumbbell () =
  let report, inputs = run_nab ~g:dumbbell ~q:3 ~l:128 Adversary.ec_liar in
  Alcotest.(check bool) "agreement" true (Nab.fault_free_agree report);
  Alcotest.(check bool) "validity" true (Nab.valid_outputs report ~inputs)

let test_nab_clean_run_never_fires_dc () =
  let report, _ = run_nab ~q:8 Adversary.dormant in
  Alcotest.(check int) "no DC" 0 report.Nab.dc_count;
  List.iter
    (fun (i : Nab.instance_report) ->
      Alcotest.(check bool) "no mismatch" false i.Nab.mismatch)
    report.Nab.instances

let test_nab_attacker_eventually_neutralised () =
  (* A persistent EC liar gets excluded; afterwards instances run at the
     fault-free rate and the "reduced to phase 1" special case kicks in. *)
  let report, _ = run_nab ~q:6 Adversary.ec_liar in
  let dc_instances =
    List.filter (fun (i : Nab.instance_report) -> i.Nab.dc_run) report.Nab.instances
  in
  Alcotest.(check int) "exactly one DC" 1 (List.length dc_instances);
  let last = List.nth report.Nab.instances 5 in
  Alcotest.(check bool) "later instances reduced to phase 1" true
    last.Nab.reduced_to_phase1;
  Alcotest.(check int) "faulty node excluded" 3
    (Digraph.num_vertices report.Nab.final_graph)

let test_nab_faulty_source_excluded_default () =
  (* A source that equivocates is eventually excluded; subsequent instances
     agree on the all-zero default. *)
  let report, _ = run_nab ~q:4 Adversary.source_equivocate in
  Alcotest.(check bool) "agreement" true (Nab.fault_free_agree report);
  Alcotest.(check bool) "source excluded" false
    (Digraph.mem_vertex report.Nab.final_graph 1);
  let last = List.nth report.Nab.instances 3 in
  List.iter
    (fun (_, d) ->
      Alcotest.(check bool) "default output" true (Bitvec.equal d (Bitvec.create 256)))
    last.Nab.decisions

let test_nab_stealthy_exhausts_budget () =
  (* The stealthy attacker survives DC3 and burns one dispute per DC: at
     f = 1 it forces exactly f(f+1) = 2 dispute controls before the
     pigeonhole convicts it; graph evolution runs through three distinct
     G_k along the way. *)
  let report, inputs = run_nab ~q:6 Adversary.stealthy in
  Alcotest.(check bool) "agreement" true (Nab.fault_free_agree report);
  Alcotest.(check bool) "validity" true (Nab.valid_outputs report ~inputs);
  Alcotest.(check int) "exactly f(f+1) DCs" 2 report.Nab.dc_count;
  Alcotest.(check bool) "attacker finally excluded" false
    (Digraph.mem_vertex report.Nab.final_graph 4);
  (* The two DCs happen in the first two instances and record one new
     dispute each, never convicting in the first round. *)
  let dcs = List.filter (fun (i : Nab.instance_report) -> i.Nab.dc_run) report.Nab.instances in
  List.iter
    (fun (i : Nab.instance_report) ->
      Alcotest.(check int)
        (Printf.sprintf "instance %d: one new dispute" i.Nab.k)
        1
        (List.length i.Nab.new_disputes))
    dcs

let test_nab_stealthy_f2 () =
  let report, inputs = run_nab ~g:k7 ~q:10 ~l:64 ~f:2 Adversary.stealthy in
  Alcotest.(check bool) "agreement" true (Nab.fault_free_agree report);
  Alcotest.(check bool) "validity" true (Nab.valid_outputs report ~inputs);
  Alcotest.(check bool) "budget" true (report.Nab.dc_count <= 6);
  Alcotest.(check bool) "multiple DCs exercised" true (report.Nab.dc_count >= 2)

let test_nab_false_flag_budget () =
  (* The purely disruptive attacker forces DC, which identifies it: the
     budget f(f+1) bounds total DC executions. *)
  let report, inputs = run_nab ~q:10 Adversary.false_flag in
  Alcotest.(check bool) "agreement" true (Nab.fault_free_agree report);
  Alcotest.(check bool) "validity" true (Nab.valid_outputs report ~inputs);
  Alcotest.(check bool) "DC within budget" true (report.Nab.dc_count <= 2)

let test_nab_throughput_reaches_bound () =
  (* Fault-free steady state: pipelined per-instance time approaches
     L/gamma + L/rho as L grows; measured throughput must be at least 80%
     of the analytic eq. (6) bound on this fixed network (the gap is the
     O(n^a) flag-broadcast overhead, which amortises with L). *)
  let g = k4 in
  let stars = Params.stars g ~source:1 ~f:1 in
  let report, _ = run_nab ~q:3 ~l:4096 ~m:16 Adversary.none in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.2f >= 0.8 * bound %.2f" report.Nab.throughput_pipelined
       stars.Params.throughput_lb)
    true
    (report.Nab.throughput_pipelined >= 0.8 *. stars.Params.throughput_lb);
  (* And it must not exceed the capacity upper bound of Theorem 2. *)
  Alcotest.(check bool)
    (Printf.sprintf "measured %.2f <= capacity %.2f" report.Nab.throughput_pipelined
       stars.Params.capacity_ub)
    true
    (report.Nab.throughput_pipelined <= stars.Params.capacity_ub +. 1e-9)

let test_pipelined_execution () =
  let g = Gen.dumbbell ~clique:3 ~clique_cap:4 ~bridge_cap:2 in
  let config = Nab.config ~l_bits:2048 ~m:16 () in
  let inputs = input_fn ~l:2048 ~seed:31 in
  let r1 = Pipelined.run ~g ~config ~inputs ~q:1 () in
  let r8 = Pipelined.run ~g ~config ~inputs ~q:8 () in
  Alcotest.(check bool) "q=1 delivered" true r1.Pipelined.all_delivered;
  Alcotest.(check bool) "q=8 delivered" true r8.Pipelined.all_delivered;
  (* Filling the pipeline lowers the per-instance cost strictly. *)
  Alcotest.(check bool) "pipeline amortises" true
    (r8.Pipelined.per_instance < r1.Pipelined.per_instance);
  (* Per-instance cost never beats the analytic round core. *)
  Alcotest.(check bool) "core is a floor" true
    (r8.Pipelined.per_instance >= r8.Pipelined.round_core -. 1e-9);
  (* Q instances pipelined beat Q instances run back to back. *)
  let seq = Nab.run ~g ~config ~adversary:Adversary.none ~inputs ~q:8 () in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined %.0f < sequential %.0f" r8.Pipelined.completion
       seq.Nab.total_wall)
    true
    (r8.Pipelined.completion < seq.Nab.total_wall)

let test_pipelined_matches_nab_params () =
  let g = Gen.complete ~n:4 ~cap:2 in
  let config = Nab.config ~l_bits:512 ~m:8 () in
  let r = Pipelined.run ~g ~config ~inputs:(input_fn ~l:512 ~seed:3) ~q:2 () in
  Alcotest.(check int) "gamma" (Params.gamma_k g ~source:1) r.Pipelined.gamma;
  Alcotest.(check int) "rho" (Params.rho_k g ~total_n:4 ~f:1 ~disputes:[])
    r.Pipelined.rho;
  (* gamma = 6 trees in K4 cap 2: some trees are necessarily 2 hops deep
     (only 6 direct source-edge units exist, and the packing needs 18 arcs). *)
  Alcotest.(check bool) "hops within diameter bound" true
    (r.Pipelined.hops >= 1 && r.Pipelined.hops <= 3)

let test_nab_gamma_rho_match_params () =
  let report, _ = run_nab ~q:1 Adversary.none in
  let inst = List.hd report.Nab.instances in
  Alcotest.(check int) "gamma_1" (Params.gamma_k k4 ~source:1) inst.Nab.gamma_k;
  Alcotest.(check int) "rho_1" (Params.rho_k k4 ~total_n:4 ~f:1 ~disputes:[])
    inst.Nab.rho_k

let test_nab_config_validation () =
  let inputs = input_fn ~l:64 ~seed:1 in
  (* The smart constructor rejects bad fields up front... *)
  Alcotest.check_raises "constructor: f < 0"
    (Invalid_argument "Nab.config: f must be >= 0") (fun () ->
      ignore (Nab.config ~f:(-1) ()));
  Alcotest.check_raises "constructor: l_bits = 0"
    (Invalid_argument "Nab.config: l_bits must be positive") (fun () ->
      ignore (Nab.config ~l_bits:0 ()));
  Alcotest.check_raises "constructor: m out of range"
    (Invalid_argument "Nab.config: m must be within 1..61") (fun () ->
      ignore (Nab.config ~m:62 ()));
  Alcotest.check_raises "updater: with_l_bits 0"
    (Invalid_argument "Nab.config: l_bits must be positive") (fun () ->
      ignore (Nab.with_l_bits 0 Nab.default_config));
  (* ...and a hand-rolled record update sneaking past it is still caught at
     session creation, with the same message. *)
  Alcotest.check_raises "l_bits = 0"
    (Invalid_argument "Nab.config: l_bits must be positive") (fun () ->
      ignore
        (Nab.run ~g:k4
           ~config:{ Nab.default_config with l_bits = 0 }
           ~adversary:Adversary.none ~inputs ~q:1 ()));
  Alcotest.check_raises "absent source"
    (Invalid_argument "Nab.create_session: source absent") (fun () ->
      ignore
        (Nab.run ~g:k4
           ~config:{ Nab.default_config with source = 99 }
           ~adversary:Adversary.none ~inputs ~q:1 ()));
  Alcotest.check_raises "bad m"
    (Invalid_argument "Nab.config: m must be within 1..61") (fun () ->
      ignore
        (Nab.run ~g:k4
           ~config:{ Nab.default_config with m = 62; l_bits = 64 }
           ~adversary:Adversary.none ~inputs ~q:1 ()));
  (* Constructor round-trip: defaults plus overrides, updaters compose. *)
  let c = Nab.config ~f:2 ~l_bits:128 () in
  Alcotest.(check int) "override f" 2 c.Nab.f;
  Alcotest.(check int) "override l_bits" 128 c.Nab.l_bits;
  Alcotest.(check int) "default m" Nab.default_config.Nab.m c.Nab.m;
  let c' = Nab.(default_config |> with_seed 42 |> with_m 8) in
  Alcotest.(check int) "with_seed" 42 c'.Nab.seed;
  Alcotest.(check int) "with_m" 8 c'.Nab.m;
  (* Over-greedy adversary rejected. *)
  let greedy =
    { Adversary.none with Adversary.pick_faulty = (fun ~g:_ ~source:_ ~f:_ -> Vset.of_list [ 3; 4 ]) }
  in
  Alcotest.check_raises "too many faulty"
    (Invalid_argument "Nab.create_session: adversary picked too many nodes") (fun () ->
      ignore (Nab.run ~g:k4 ~config:Nab.default_config ~adversary:greedy ~inputs ~q:1 ()))

let test_nab_rejects_bad_networks () =
  let config = Nab.default_config in
  let inputs = input_fn ~l:config.Nab.l_bits ~seed:1 in
  Alcotest.check_raises "ring too sparse"
    (Invalid_argument "Nab.run: need n >= 3f+1 and connectivity >= 2f+1") (fun () ->
      ignore
        (Nab.run ~g:(Gen.ring ~n:6 ~cap:2) ~config ~adversary:Adversary.none ~inputs
           ~q:1 ()))

(* ---------- session API ---------- *)

let test_session_incremental_matches_batch () =
  let config = Nab.config ~f:1 ~l_bits:256 ~m:8 () in
  let inputs = input_fn ~l:256 ~seed:17 in
  let batch = Nab.run ~g:k4 ~config ~adversary:Adversary.ec_liar ~inputs ~q:5 () in
  let ses = Nab.create_session ~g:k4 ~config ~adversary:Adversary.ec_liar () in
  for k = 1 to 5 do
    ignore (Nab.session_broadcast ses (inputs k))
  done;
  let incr_report = Nab.session_report ses in
  Alcotest.(check int) "same dc count" batch.Nab.dc_count incr_report.Nab.dc_count;
  Alcotest.(check (float 1e-9)) "same total time" batch.Nab.total_wall
    incr_report.Nab.total_wall;
  List.iter2
    (fun (b : Nab.instance_report) (i : Nab.instance_report) ->
      List.iter2
        (fun (v1, d1) (v2, d2) ->
          Alcotest.(check int) "node" v1 v2;
          Alcotest.(check bool) "decision" true (Bitvec.equal d1 d2))
        b.Nab.decisions i.Nab.decisions)
    batch.Nab.instances incr_report.Nab.instances;
  Alcotest.(check bool) "graph evolved identically" true
    (Digraph.equal batch.Nab.final_graph (Nab.session_graph ses))

let test_session_state_observable () =
  let config = Nab.config ~f:1 ~l_bits:128 ~m:8 () in
  let ses = Nab.create_session ~g:k4 ~config ~adversary:Adversary.stealthy () in
  Alcotest.(check int) "starts clean" 0 (Nab.session_dc_count ses);
  ignore (Nab.session_broadcast ses (Bitvec.create 128));
  Alcotest.(check int) "one DC after first attack" 1 (Nab.session_dc_count ses);
  Alcotest.(check int) "one dispute" 1 (List.length (Nab.session_disputes ses));
  Alcotest.(check int) "instances recorded" 1 (List.length (Nab.session_instances ses))

(* ---------- consensus on top of NAB ---------- *)

let test_consensus_guarantees () =
  let config = Nab.config ~f:1 ~l_bits:64 ~m:8 () in
  List.iter
    (fun (name, adv) ->
      (* Distinct inputs: agreement must still hold. *)
      let inputs v = Bitvec.of_symbols ~sym_bits:8 (Array.make 8 (v * 17 mod 256)) in
      let r = Consensus.run ~g:k4 ~config ~adversary:adv ~inputs in
      let faulty = adv.Adversary.pick_faulty ~g:k4 ~source:1 ~f:1 in
      Alcotest.(check bool) (name ^ ": agreement") true (Consensus.all_agree r ~faulty);
      (* Identical honest inputs: validity. *)
      let same _ = Bitvec.of_string "same val" in
      let r2 = Consensus.run ~g:k4 ~config ~adversary:adv ~inputs:same in
      Alcotest.(check bool) (name ^ ": validity") true
        (Consensus.valid r2 ~faulty ~inputs:same);
      Alcotest.(check bool) (name ^ ": validity agreement") true
        (Consensus.all_agree r2 ~faulty))
    [
      ("none", Adversary.none);
      ("crash", Adversary.crash);
      ("ec-liar", Adversary.ec_liar);
      ("source-equivocate", Adversary.source_equivocate);
    ]

let test_consensus_vectors_identical () =
  let config = Nab.config ~f:1 ~l_bits:64 ~m:8 () in
  let inputs v = Bitvec.of_symbols ~sym_bits:8 (Array.make 8 v) in
  let r = Consensus.run ~g:k4 ~config ~adversary:Adversary.ec_liar ~inputs in
  let faulty = Adversary.ec_liar.Adversary.pick_faulty ~g:k4 ~source:1 ~f:1 in
  let honest_vectors =
    List.filter (fun (v, _) -> not (Vset.mem v faulty)) r.Consensus.vectors
  in
  match honest_vectors with
  | [] -> Alcotest.fail "no honest nodes"
  | (_, vec0) :: rest ->
      List.iter
        (fun (v, vec) ->
          List.iter2
            (fun (s1, d1) (s2, d2) ->
              Alcotest.(check int) "source" s1 s2;
              Alcotest.(check bool)
                (Printf.sprintf "node %d agrees on source %d" v s1)
                true (Bitvec.equal d1 d2))
            vec0 vec)
        rest

let test_nab_chaos_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"chaos adversary fuzz: agreement + validity"
       (QCheck2.Gen.int_range 0 10_000)
       (fun seed ->
         let report, inputs = run_nab ~q:4 ~l:128 (Adversary.chaos ~seed) in
         Nab.fault_free_agree report
         && Nab.valid_outputs report ~inputs
         && report.Nab.dc_count <= 2))

let test_nab_random_graphs_random_adversaries =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~name:"random feasible graph x random adversary: all guarantees"
       QCheck2.Gen.(pair (int_range 0 200) (int_range 0 100))
       (fun (gseed, aseed) ->
         let g =
           Gen.random_bb_feasible ~n:5 ~f:1 ~p:0.8 ~min_cap:1 ~max_cap:3 ~seed:gseed
         in
         let _, adv = List.nth Adversary.all (aseed mod List.length Adversary.all) in
         let report, inputs = run_nab ~g ~q:3 ~l:128 adv in
         Nab.fault_free_agree report
         && Nab.valid_outputs report ~inputs
         && report.Nab.dc_count <= 2
         && List.for_all
              (fun v ->
                Vset.mem v report.Nab.faulty
                || Digraph.mem_vertex report.Nab.final_graph v)
              (Digraph.vertices g)))

let test_nab_f2_random_graphs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:10 ~name:"f=2 random feasible graphs x adversaries"
       QCheck2.Gen.(pair (int_range 0 60) (int_range 0 100))
       (fun (gseed, aseed) ->
         let g =
           Gen.random_bb_feasible ~n:8 ~f:2 ~p:0.85 ~min_cap:1 ~max_cap:2 ~seed:gseed
         in
         let _, adv = List.nth Adversary.all (aseed mod List.length Adversary.all) in
         let report, inputs = run_nab ~g ~q:3 ~l:64 ~f:2 adv in
         Nab.fault_free_agree report
         && Nab.valid_outputs report ~inputs
         && report.Nab.dc_count <= 6))

let test_dc_cost_linear_in_l () =
  (* Dispute control is O(L n^b): doubling L should roughly double the DC
     instance's bits (transcript payloads dominate). *)
  let dc_bits l =
    let report, _ = run_nab ~q:1 ~l Adversary.ec_liar in
    let inst = List.hd report.Nab.instances in
    let stat =
      List.find (fun (s : Sim.phase_stat) -> s.Sim.phase = "dispute-control")
        inst.Nab.phase_stats
    in
    float_of_int stat.Sim.bits_total
  in
  let b1 = dc_bits 512 and b2 = dc_bits 1024 in
  let ratio = b2 /. b1 in
  Alcotest.(check bool)
    (Printf.sprintf "DC bits ratio %.2f in [1.5, 2.5]" ratio)
    true
    (ratio >= 1.5 && ratio <= 2.5)

let test_nab_deterministic () =
  let r1, _ = run_nab ~q:3 ~l:128 (Adversary.garbage ~seed:5) in
  let r2, _ = run_nab ~q:3 ~l:128 (Adversary.garbage ~seed:5) in
  Alcotest.(check (float 1e-12)) "same timing" r1.Nab.total_wall r2.Nab.total_wall;
  Alcotest.(check int) "same dc count" r1.Nab.dc_count r2.Nab.dc_count;
  List.iter2
    (fun (i1 : Nab.instance_report) (i2 : Nab.instance_report) ->
      List.iter2
        (fun (v1, d1) (v2, d2) ->
          Alcotest.(check int) "same node" v1 v2;
          Alcotest.(check bool) "same decision" true (Bitvec.equal d1 d2))
        i1.Nab.decisions i2.Nab.decisions)
    r1.Nab.instances r2.Nab.instances

(* The adaptive strategy corrupts, greedily, the node whose exclusion most
   reduces the residual broadcast min-cut; disconnecting picks count as
   not-more-damaging. Mirror that damage function and check the greedy
   optimum is what gets picked. *)
let adaptive_damage g ~source v =
  let g' = Digraph.remove_vertex g v in
  if
    Digraph.mem_vertex g' source
    && List.for_all
         (fun w -> w = source || Maxflow.max_flow g' ~src:source ~dst:w > 0)
         (Digraph.vertices g')
  then Maxflow.broadcast_mincut g' ~src:source
  else max_int

let test_adaptive_minimizes_mincut () =
  let source = 1 in
  let check name g =
    let chosen = Adversary.adaptive ~g ~source ~f:1 in
    Alcotest.(check int) (name ^ ": one corruption") 1 (Vset.cardinal chosen);
    let v = List.hd (Vset.elements chosen) in
    Alcotest.(check bool) (name ^ ": never the source") true (v <> source);
    let best =
      Digraph.vertices g
      |> List.filter (fun w -> w <> source)
      |> List.map (adaptive_damage g ~source)
      |> List.fold_left min max_int
    in
    Alcotest.(check int)
      (name ^ ": picked node minimizes residual broadcast min-cut")
      best (adaptive_damage g ~source v)
  in
  check "k4" k4;
  check "k5" k5;
  check "chords7" chords7;
  check "dumbbell" dumbbell;
  check "random" (Gen.random_bb_feasible ~n:6 ~f:1 ~p:0.8 ~min_cap:1 ~max_cap:3 ~seed:5);
  (* A designed unique optimum: node 3's incident links carry capacity 4,
     every other link capacity 1 — so removing node 3 leaves the weakest
     residual network (a K4 at capacity 1) and must be the greedy pick. *)
  let hub =
    Digraph.of_edges
      (List.concat_map
         (fun (a, b) ->
           let cap = if a = 3 || b = 3 then 4 else 1 in
           [ (a, b, cap); (b, a, cap) ])
         [ (1, 2); (1, 3); (1, 4); (1, 5); (2, 3); (2, 4); (2, 5); (3, 4); (3, 5); (4, 5) ])
  in
  let chosen = Adversary.adaptive ~g:hub ~source ~f:1 in
  Alcotest.(check bool) "hub: picks the capacity hub" true (Vset.mem 3 chosen);
  (* f = 2: two distinct non-source nodes, chosen greedily. *)
  let chosen2 = Adversary.adaptive ~g:k7 ~source ~f:2 in
  Alcotest.(check int) "k7 f=2: two corruptions" 2 (Vset.cardinal chosen2);
  Alcotest.(check bool) "k7 f=2: source honest" true (not (Vset.mem source chosen2))

let () =
  Alcotest.run "protocol"
    [
      ( "phase1",
        [
          Alcotest.test_case "fault-free delivery" `Quick test_phase1_fault_free;
          Alcotest.test_case "corruption is local" `Quick test_phase1_corruption_is_local;
          Alcotest.test_case "timing matches paper" `Quick test_phase1_timing_matches_paper;
          Alcotest.test_case "scheduled run drains delayed final hop" `Quick
            test_phase1_run_drains_delayed_final_hop;
        ] );
      ( "rlnc",
        [
          Alcotest.test_case "decodes everywhere" `Quick test_rlnc_decodes_everywhere;
          test_rlnc_random_graphs;
          Alcotest.test_case "validates input" `Quick test_rlnc_validates_input;
        ] );
      ( "dispute-control",
        [
          Alcotest.test_case "analyse: consistent claims" `Quick
            test_analyse_consistent_claims;
          Alcotest.test_case "analyse: DC2 mismatch" `Quick test_analyse_dc2_mismatch;
          Alcotest.test_case "analyse: DC3 lying sender" `Quick
            test_analyse_dc3_lying_sender;
          Alcotest.test_case "analyse: false flag convicted" `Quick
            test_analyse_false_flag_convicted;
          Alcotest.test_case "honest never convicted" `Quick test_honest_never_convicted;
          Alcotest.test_case "disputes involve faulty" `Quick
            test_disputes_always_involve_faulty;
        ] );
      ( "nab",
        [
          Alcotest.test_case "all adversaries on K4" `Quick test_nab_all_adversaries_k4;
          Alcotest.test_case "all adversaries on chords7" `Slow
            test_nab_all_adversaries_chords7;
          Alcotest.test_case "f=2 on K7" `Slow test_nab_f2_k7;
          Alcotest.test_case "phase-king backend" `Quick test_nab_phase_king_backend;
          Alcotest.test_case "dumbbell" `Quick test_nab_dumbbell;
          Alcotest.test_case "clean run no DC" `Quick test_nab_clean_run_never_fires_dc;
          Alcotest.test_case "attacker neutralised" `Quick
            test_nab_attacker_eventually_neutralised;
          Alcotest.test_case "faulty source default" `Quick
            test_nab_faulty_source_excluded_default;
          Alcotest.test_case "stealthy exhausts budget" `Quick
            test_nab_stealthy_exhausts_budget;
          Alcotest.test_case "stealthy f=2" `Slow test_nab_stealthy_f2;
          Alcotest.test_case "false flag budget" `Quick test_nab_false_flag_budget;
          Alcotest.test_case "throughput reaches bound" `Quick
            test_nab_throughput_reaches_bound;
          Alcotest.test_case "pipelined execution" `Quick test_pipelined_execution;
          Alcotest.test_case "pipelined params" `Quick test_pipelined_matches_nab_params;
          Alcotest.test_case "params consistency" `Quick test_nab_gamma_rho_match_params;
          Alcotest.test_case "config validation" `Quick test_nab_config_validation;
          Alcotest.test_case "rejects bad networks" `Quick test_nab_rejects_bad_networks;
          Alcotest.test_case "session incremental = batch" `Quick
            test_session_incremental_matches_batch;
          Alcotest.test_case "session state observable" `Quick
            test_session_state_observable;
          Alcotest.test_case "consensus guarantees" `Quick test_consensus_guarantees;
          Alcotest.test_case "consensus vectors identical" `Quick
            test_consensus_vectors_identical;
          test_nab_chaos_fuzz;
          test_nab_random_graphs_random_adversaries;
          test_nab_f2_random_graphs;
          Alcotest.test_case "DC cost linear in L" `Quick test_dc_cost_linear_in_l;
          Alcotest.test_case "deterministic" `Quick test_nab_deterministic;
          Alcotest.test_case "adaptive minimizes min-cut" `Quick
            test_adaptive_minimizes_mincut;
        ] );
    ]
