(* Tests for the synchronous simulator (Sim) and wire format (Wire/Packet). *)

open Nab_graph
open Nab_net

let drop (_ : int -> (int * Packet.t) list) = ()

let flag b = Packet.direct ~proto:"t" ~origin:0 ~dst:0 (Wire.Flag b)

(* ---------- Wire ---------- *)

let test_wire_bits () =
  Alcotest.(check int) "flag" 1 (Wire.bits (Wire.Flag true));
  Alcotest.(check int) "value" 128 (Wire.bits (Wire.Value { bits = 128; data = [||] }));
  Alcotest.(check int) "coded" 24
    (Wire.bits (Wire.Coded { sym_bits = 8; data = [| 1; 2; 3 |] }));
  Alcotest.(check int) "labeled adds 8/elem" 17
    (Wire.bits (Wire.Labeled { label = [ 1; 2 ]; body = Wire.Flag false }));
  Alcotest.(check int) "batch sums" 2
    (Wire.bits (Wire.Batch [ Wire.Flag true; Wire.Flag false ]));
  Alcotest.(check int) "empty batch still 1 bit" 1 (Wire.bits (Wire.Batch []));
  Alcotest.(check int) "nothing" 1 (Wire.bits Wire.Nothing);
  let claim =
    {
      Wire.c_phase = "p";
      c_round = 0;
      c_src = 1;
      c_dst = 2;
      c_dir = Wire.Sent;
      c_body = Wire.Flag true;
    }
  in
  Alcotest.(check int) "claims header" 33 (Wire.bits (Wire.Claims [ claim ]))

let test_wire_equal () =
  let a = Wire.Coded { sym_bits = 4; data = [| 1; 2 |] } in
  let b = Wire.Coded { sym_bits = 4; data = [| 1; 2 |] } in
  let c = Wire.Coded { sym_bits = 4; data = [| 1; 3 |] } in
  Alcotest.(check bool) "equal" true (Wire.equal a b);
  Alcotest.(check bool) "not equal" false (Wire.equal a c)

(* ---------- Sim ---------- *)

let line_graph = Digraph.of_edges [ (1, 2, 4); (2, 1, 4); (2, 3, 2); (3, 2, 2) ]

let test_sim_delivery () =
  let sim = Sim.create line_graph ~bits:Packet.bits in
  let inbox =
    Sim.round sim ~phase:"p" (fun v ->
        if v = 1 then [ (2, flag true) ] else if v = 2 then [ (3, flag false) ] else [])
  in
  Alcotest.(check int) "node 2 got one" 1 (List.length (inbox 2));
  Alcotest.(check int) "node 3 got one" 1 (List.length (inbox 3));
  Alcotest.(check int) "node 1 got none" 0 (List.length (inbox 1));
  (match inbox 2 with
  | [ (sender, pkt) ] ->
      Alcotest.(check int) "sender" 1 sender;
      Alcotest.(check bool) "payload" true (pkt.Packet.payload = Wire.Flag true)
  | _ -> Alcotest.fail "bad inbox");
  Alcotest.(check int) "rounds" 1 (Sim.rounds_run sim)

let test_sim_drops_non_edges () =
  let sim = Sim.create line_graph ~bits:Packet.bits in
  let inbox = Sim.round sim ~phase:"p" (fun v -> if v = 1 then [ (3, flag true) ] else []) in
  Alcotest.(check int) "no 1->3 link" 0 (List.length (inbox 3));
  Alcotest.(check int) "dropped" 1 (Sim.dropped sim)

let big_packet bits = Packet.direct ~proto:"t" ~origin:0 ~dst:0 (Wire.Value { bits; data = [||] })

let test_sim_duration () =
  let sim = Sim.create line_graph ~bits:Packet.bits in
  (* 8 bits on a 4-capacity link takes 2 time units; 8 bits on a 2-capacity
     link takes 4; the round lasts max = 4. *)
  drop
    (Sim.round sim ~phase:"p" (fun v ->
         if v = 1 then [ (2, big_packet 8) ]
         else if v = 2 then [ (3, big_packet 8) ]
         else []));
  Alcotest.(check (float 1e-9)) "duration = slowest link" 4.0 ((Sim.timing sim).Sim.wall);
  (* A second round accumulates; bottleneck is per-phase max. *)
  drop (Sim.round sim ~phase:"p" (fun v -> if v = 1 then [ (2, big_packet 4) ] else []));
  Alcotest.(check (float 1e-9)) "wall accumulates" 5.0 ((Sim.timing sim).Sim.wall);
  Alcotest.(check (float 1e-9)) "pipelined takes max" 4.0 ((Sim.timing sim).Sim.pipelined)

let test_sim_parallel_links_share_round () =
  let sim = Sim.create line_graph ~bits:Packet.bits in
  (* Both directions of a link are separate capacities. *)
  drop
    (Sim.round sim ~phase:"p" (fun v ->
         if v = 1 then [ (2, big_packet 4) ] else if v = 2 then [ (1, big_packet 4) ] else []));
  Alcotest.(check (float 1e-9)) "full duplex" 1.0 ((Sim.timing sim).Sim.wall)

let test_sim_aggregates_per_link () =
  let sim = Sim.create line_graph ~bits:Packet.bits in
  drop
    (Sim.round sim ~phase:"p" (fun v ->
         if v = 1 then [ (2, big_packet 4); (2, big_packet 4) ] else []));
  (* Two messages share the link: 8 bits / cap 4 = 2. *)
  Alcotest.(check (float 1e-9)) "aggregated" 2.0 ((Sim.timing sim).Sim.wall);
  Alcotest.(check (list (pair (pair int int) int)))
    "link bits"
    [ ((1, 2), 8) ]
    (Sim.link_bits sim)

let test_sim_utilization () =
  let sim = Sim.create line_graph ~bits:Packet.bits in
  (* 8 bits on link (1,2) of cap 4: duration 2, so that link runs at 100%
     and the others at 0. *)
  drop (Sim.round sim ~phase:"p" (fun v -> if v = 1 then [ (2, big_packet 8) ] else []));
  (match List.assoc_opt (1, 2) (Sim.utilization sim) with
  | Some u -> Alcotest.(check (float 1e-9)) "saturated" 1.0 u
  | None -> Alcotest.fail "missing link");
  (* Second round halves utilisation of that link. *)
  drop (Sim.round sim ~phase:"p" (fun v -> if v = 2 then [ (3, big_packet 4) ] else []));
  match List.assoc_opt (1, 2) (Sim.utilization sim) with
  | Some u -> Alcotest.(check (float 1e-9)) "diluted" 0.5 u
  | None -> Alcotest.fail "missing link"

let test_sim_phases () =
  let sim = Sim.create line_graph ~bits:Packet.bits in
  drop (Sim.round sim ~phase:"a" (fun v -> if v = 1 then [ (2, big_packet 4) ] else []));
  drop (Sim.round sim ~phase:"b" (fun v -> if v = 2 then [ (3, big_packet 2) ] else []));
  Sim.add_cost sim ~phase:"b" 10.0;
  let stats = (Sim.timing sim).Sim.phases in
  Alcotest.(check (list string)) "phase order" [ "a"; "b" ]
    (List.map (fun s -> s.Sim.phase) stats);
  let b = List.nth stats 1 in
  Alcotest.(check int) "rounds in b" 1 b.Sim.rounds;
  Alcotest.(check (float 1e-9)) "extra cost" 10.0 b.Sim.extra;
  Alcotest.(check (float 1e-9)) "elapsed includes extra" 12.0 ((Sim.timing sim).Sim.wall)

let test_sim_events () =
  let sim = Sim.create ~keep_events:true line_graph ~bits:Packet.bits in
  drop (Sim.round sim ~phase:"x" (fun v -> if v = 1 then [ (2, flag true) ] else []));
  drop (Sim.round sim ~phase:"y" (fun v -> if v = 2 then [ (3, flag false) ] else []));
  Alcotest.(check int) "two events" 2 (List.length (Sim.events sim));
  (match Sim.events_of_phase sim "x" with
  | [ e ] ->
      Alcotest.(check int) "src" 1 e.Sim.src;
      Alcotest.(check int) "dst" 2 e.Sim.dst;
      Alcotest.(check int) "round" 1 e.Sim.round_no
  | _ -> Alcotest.fail "expected exactly one event in phase x");
  Alcotest.(check int) "phase filter" 1 (List.length (Sim.events_of_phase sim "y"))

let test_sim_events_off_by_default () =
  (* Event retention is opt-in: without ~keep_events:true the trace stays
     empty, while delivery and every counter keep working. *)
  let sim = Sim.create line_graph ~bits:Packet.bits in
  Alcotest.(check bool) "keeps_events off" false (Sim.keeps_events sim);
  let inbox =
    Sim.round sim ~phase:"x" (fun v ->
        if v = 1 then [ (2, flag true); (3, flag true) ] else [])
  in
  Alcotest.(check int) "delivered" 1 (List.length (inbox 2));
  Alcotest.(check int) "dropped still counted" 1 (Sim.dropped sim);
  Alcotest.(check int) "no events retained" 0 (List.length (Sim.events sim));
  Alcotest.(check int) "phase filter empty" 0 (List.length (Sim.events_of_phase sim "x"));
  let sim_on = Sim.create ~keep_events:true line_graph ~bits:Packet.bits in
  Alcotest.(check bool) "keeps_events on" true (Sim.keeps_events sim_on)

let test_sim_same_sender_order () =
  (* Same-sender messages arrive in reverse send order — the original
     fabric consed deliveries and stable-sorted by sender; the compiled
     core must reproduce that tie order exactly. *)
  let sim = Sim.create line_graph ~bits:Packet.bits in
  let msgs = [ big_packet 1; big_packet 2; big_packet 3 ] in
  let inbox =
    Sim.round sim ~phase:"p" (fun v ->
        if v = 1 then List.map (fun m -> (2, m)) msgs else [])
  in
  Alcotest.(check int) "three" 3 (List.length (inbox 2));
  Alcotest.(check bool) "reverse send order" true
    (List.map snd (inbox 2) = List.rev msgs);
  Alcotest.(check bool) "all from 1" true (List.for_all (fun (s, _) -> s = 1) (inbox 2))

let test_sim_duration_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"round duration = max over links of bits/cap"
       QCheck2.Gen.(
         list_size (int_range 1 12)
           (triple (int_range 1 3) (int_range 1 3) (int_range 1 64)))
       (fun sends ->
         (* Nodes 1..3 fully meshed with distinct capacities. *)
         let g =
           Nab_graph.Digraph.of_edges
             [ (1, 2, 2); (2, 1, 3); (1, 3, 5); (3, 1, 1); (2, 3, 4); (3, 2, 2) ]
         in
         let sim = Sim.create g ~bits:Packet.bits in
         let outbox v =
           List.filter_map
             (fun (src, dst, bits) ->
               if src = v && src <> dst then Some (dst, big_packet bits) else None)
             sends
         in
         let _inbox = Sim.round sim ~phase:"p" outbox in
         let expected =
           let per_link = Hashtbl.create 8 in
           List.iter
             (fun (s, d, b) ->
               if s <> d && Nab_graph.Digraph.mem_edge g s d then
                 Hashtbl.replace per_link (s, d)
                   (b + try Hashtbl.find per_link (s, d) with Not_found -> 0))
             sends;
           Hashtbl.fold
             (fun (s, d) b acc ->
               Float.max acc
                 (float_of_int b /. float_of_int (Nab_graph.Digraph.cap g s d)))
             per_link 0.0
         in
         Float.abs ((Sim.timing sim).Sim.wall -. expected) < 1e-9))

let test_sim_pending_and_drain () =
  (* A 2-round delay on (2,3): after node 1's flag reaches 2 and 2 forwards,
     the forwarded copy is still in flight once the sender goes quiet. The
     seed simulator dropped such messages on the floor; [pending_count] must
     expose them and [drain] must deliver them. *)
  let delays (src, dst) = if (src, dst) = (2, 3) then 2 else 0 in
  let sim = Sim.create ~delays line_graph ~bits:Packet.bits in
  drop (Sim.round sim ~phase:"p" (fun v -> if v = 2 then [ (3, flag true) ] else []));
  Alcotest.(check int) "one message in flight" 1 (Sim.pending_count sim);
  let late = Sim.drain sim ~phase:"p" in
  Alcotest.(check int) "drained" 0 (Sim.pending_count sim);
  (match late 3 with
  | [ (sender, pkt) ] ->
      Alcotest.(check int) "late sender" 2 sender;
      Alcotest.(check bool) "late payload" true (pkt.Packet.payload = Wire.Flag true)
  | l -> Alcotest.fail (Printf.sprintf "expected one late arrival, got %d" (List.length l)));
  Alcotest.(check int) "others empty" 0 (List.length (late 1));
  (* Draining an idle simulator is a no-op. *)
  let empty = Sim.drain sim ~phase:"p" in
  Alcotest.(check int) "no-op drain" 0 (List.length (empty 3))

let test_sim_rejects_zero_bits () =
  let sim = Sim.create line_graph ~bits:(fun _ -> 0) in
  Alcotest.check_raises "zero-size message"
    (Invalid_argument "Sim.round: message with non-positive bit size") (fun () ->
      drop (Sim.round sim ~phase:"p" (fun v -> if v = 1 then [ (2, flag true) ] else [])))

(* ---------- differential: compiled core vs reference fabric ----------

   [Ref_sim] (test/ref_sim) is the pre-compilation simulator, kept
   verbatim. The compiled core in lib/net/sim.ml must be observably
   byte-identical to it: inbox contents and ordering (including
   same-sender ties and delayed arrivals), drop counts, timings, per-link
   totals, utilisation, events. Mirrors the Ref_gauss pattern in
   bench/kernels.ml. *)

(* One random episode: ids (possibly sparse), a random edge set, per-link
   delays in 0..2 derived from [dseed], and per-round send lists whose
   destination index [n] maps to an absent vertex (exercising drops). *)
let diff_case_gen =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* spread = int_range 1 4 in
    let* base = int_range 0 5 in
    let ids = Array.init n (fun i -> base + 1 + (i * spread)) in
    let pairs =
      List.concat_map
        (fun s ->
          List.filter_map
            (fun d -> if s <> d then Some (s, d) else None)
            (Array.to_list ids))
        (Array.to_list ids)
    in
    let* edges =
      flatten_l
        (List.map
           (fun (s, d) ->
             let* keep = bool in
             if keep then map (fun c -> Some (s, d, c)) (int_range 1 4)
             else return None)
           pairs)
    in
    let edges = List.filter_map Fun.id edges in
    let* dseed = int_range 0 97 in
    let* sends =
      list_size (int_range 1 6)
        (list_size (int_range 0 12)
           (triple (int_range 0 (n - 1)) (int_range 0 n) (int_range 1 200)))
    in
    return (ids, edges, dseed, sends))

let run_differential ?(delayed = true) (ids, edges, dseed, sends) =
  let g = Digraph.of_edges ~vertices:(Array.to_list ids) edges in
  let delays (s, d) = if delayed then ((s * 5) + (d * 3) + dseed) mod 3 else 0 in
  let bits m = 1 + (m land 7) in
  let sim = Sim.create ~delays ~keep_events:true g ~bits in
  let rsim = Ref_sim.create ~delays g ~bits in
  let verts = Digraph.vertices g in
  let id_of i = if i >= Array.length ids then 999983 else ids.(i) in
  let ok = ref true in
  let check b = if not b then ok := false in
  List.iteri
    (fun r round_sends ->
      let phase = if r mod 2 = 0 then "even" else "odd" in
      let outbox v =
        List.filter_map
          (fun (si, di, m) -> if id_of si = v then Some (id_of di, m) else None)
          round_sends
      in
      let ib = Sim.round sim ~phase outbox in
      let rb = Ref_sim.round rsim ~phase outbox in
      List.iter (fun v -> check (ib v = rb v)) verts)
    sends;
  check (Sim.pending_count sim = Ref_sim.pending_count rsim);
  let late = Sim.drain sim ~phase:"drain" in
  let rlate = Ref_sim.drain rsim ~phase:"drain" in
  List.iter (fun v -> check (late v = rlate v)) verts;
  check (Sim.dropped sim = Ref_sim.dropped rsim);
  check (Sim.rounds_run sim = Ref_sim.rounds_run rsim);
  check (Sim.link_bits sim = Ref_sim.link_bits rsim);
  check (Sim.utilization sim = Ref_sim.utilization rsim);
  let t1 = Sim.timing sim and t2 = Ref_sim.timing rsim in
  check (t1.Sim.wall = t2.Ref_sim.wall);
  check (t1.Sim.pipelined = t2.Ref_sim.pipelined);
  check
    (List.map
       (fun (p : Sim.phase_stat) ->
         (p.Sim.phase, p.Sim.rounds, p.Sim.wall, p.Sim.bottleneck, p.Sim.bits_total, p.Sim.extra))
       t1.Sim.phases
    = List.map
        (fun (p : Ref_sim.phase_stat) ->
          ( p.Ref_sim.phase,
            p.Ref_sim.rounds,
            p.Ref_sim.wall,
            p.Ref_sim.bottleneck,
            p.Ref_sim.bits_total,
            p.Ref_sim.extra ))
        t2.Ref_sim.phases);
  check
    (List.map
       (fun (e : _ Sim.event) ->
         (e.Sim.round_no, e.Sim.ev_phase, e.Sim.src, e.Sim.dst, e.Sim.msg))
       (Sim.events sim)
    = List.map
        (fun (e : _ Ref_sim.event) ->
          (e.Ref_sim.round_no, e.Ref_sim.ev_phase, e.Ref_sim.src, e.Ref_sim.dst, e.Ref_sim.msg))
        (Ref_sim.events rsim));
  !ok

let test_sim_differential_zero_delay =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"compiled core byte-identical to reference fabric (zero delays)"
       diff_case_gen
       (fun case -> run_differential ~delayed:false case))

let test_sim_differential_delayed =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"compiled core byte-identical to reference fabric (delayed links)"
       diff_case_gen
       (fun case -> run_differential ~delayed:true case))

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "bits" `Quick test_wire_bits;
          Alcotest.test_case "equal" `Quick test_wire_equal;
        ] );
      ( "sim",
        [
          Alcotest.test_case "delivery" `Quick test_sim_delivery;
          Alcotest.test_case "drops non-edges" `Quick test_sim_drops_non_edges;
          Alcotest.test_case "duration model" `Quick test_sim_duration;
          Alcotest.test_case "full duplex" `Quick test_sim_parallel_links_share_round;
          Alcotest.test_case "per-link aggregation" `Quick test_sim_aggregates_per_link;
          Alcotest.test_case "utilization" `Quick test_sim_utilization;
          Alcotest.test_case "phases" `Quick test_sim_phases;
          Alcotest.test_case "events" `Quick test_sim_events;
          Alcotest.test_case "events off by default" `Quick test_sim_events_off_by_default;
          Alcotest.test_case "same-sender order" `Quick test_sim_same_sender_order;
          test_sim_duration_property;
          Alcotest.test_case "pending count and drain" `Quick test_sim_pending_and_drain;
          Alcotest.test_case "rejects zero bits" `Quick test_sim_rejects_zero_bits;
          test_sim_differential_zero_delay;
          test_sim_differential_delayed;
        ] );
    ]
