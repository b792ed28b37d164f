(* Tests for the classical BB layer: Routing, Reliable, Eig, Phase_king,
   Oblivious. *)

open Nab_graph
open Nab_net
open Nab_classic

let new_sim g = Sim.create g ~bits:Packet.bits

(* ---------- Routing ---------- *)

let test_routing_direct_edges () =
  let g = Gen.complete ~n:4 ~cap:1 in
  let r = Routing.build g ~f:1 in
  Alcotest.(check (list (list int))) "direct route" [ [ 1; 2 ] ] (Routing.paths r ~src:1 ~dst:2);
  Alcotest.(check int) "max len" 1 (Routing.max_path_len r)

let test_routing_disjoint () =
  (* Ring with chords is 4-connected; remove an edge to force multi-hop. *)
  let g = Gen.ring_with_chords ~n:7 ~cap:1 ~chord_cap:1 in
  let g = Digraph.remove_pair g 1 4 in
  let r = Routing.build g ~f:1 in
  let paths = Routing.paths r ~src:1 ~dst:4 in
  Alcotest.(check int) "2f+1 paths" 3 (List.length paths);
  let internals = List.concat_map (fun p -> List.filter (fun v -> v <> 1 && v <> 4) p) paths in
  Alcotest.(check int) "node disjoint" (List.length internals)
    (List.length (List.sort_uniq compare internals));
  Alcotest.(check bool) "is_route accepts" true (Routing.is_route r ~src:1 ~dst:4 (List.hd paths));
  Alcotest.(check bool) "is_route rejects forgery" false
    (Routing.is_route r ~src:1 ~dst:4 [ 1; 99; 4 ])

let test_routing_too_sparse () =
  let g = Gen.ring ~n:5 ~cap:1 in
  (* Connectivity 2 < 3: non-adjacent pairs cannot get 3 disjoint paths. *)
  match Routing.build g ~f:1 with
  | _ -> Alcotest.fail "expected failure"
  | exception Invalid_argument _ -> ()

let test_next_hop () =
  let g = Gen.complete ~n:4 ~cap:1 in
  let r = Routing.build g ~f:1 in
  Alcotest.(check (option int)) "middle" (Some 3) (Routing.next_hop r ~route:[ 1; 2; 3 ] ~me:2);
  Alcotest.(check (option int)) "end" None (Routing.next_hop r ~route:[ 1; 2; 3 ] ~me:3)

(* ---------- Reliable ---------- *)

(* A 5-node, 3-connected graph where 1 and 4 are NOT adjacent, so logical
   messages 1 -> 4 really ride 3 disjoint multi-hop paths. *)
let sparse5 =
  let g = Gen.ring_with_chords ~n:5 ~cap:2 ~chord_cap:2 in
  (* ring+chords on 5 nodes is K5; drop the 1-3 pair, leaving node 1 with
     degree 3 = 2f+1, so logical 1 -> 3 traffic rides 3 disjoint paths. *)
  Digraph.remove_pair g 1 3

let test_reliable_honest () =
  Alcotest.(check bool) "precondition: not adjacent" false (Digraph.mem_edge sparse5 1 3);
  let sim = new_sim sparse5 in
  let routing = Routing.build sparse5 ~f:1 in
  let delivery =
    Reliable.exchange ~net:(Sim.transport sim) ~phase:"t" ~routing ~proto:"t" ~faulty:Vset.empty
      ~hooks:Reliable.honest_hooks ~default:Wire.Nothing
      ~sends:[ (1, 3, Wire.Flag true); (2, 5, Wire.Flag false) ]
  in
  Alcotest.(check bool) "1->3 delivered" true
    (Reliable.get delivery ~default:Wire.Nothing ~src:1 ~dst:3 = Wire.Flag true);
  Alcotest.(check bool) "2->5 delivered" true
    (Reliable.get delivery ~default:Wire.Nothing ~src:2 ~dst:5 = Wire.Flag false)

let test_reliable_majority_beats_corruption () =
  let sim = new_sim sparse5 in
  let routing = Routing.build sparse5 ~f:1 in
  (* Node 2 corrupts every packet it forwards; 1->4 still delivered since
     only one of the three disjoint paths passes through node 2. *)
  let hooks =
    {
      Reliable.honest_hooks with
      forward =
        (fun ~me:_ (pkt : Packet.t) -> Some { pkt with payload = Wire.Flag false });
    }
  in
  let delivery =
    Reliable.exchange ~net:(Sim.transport sim) ~phase:"t" ~routing ~proto:"t" ~faulty:(Vset.singleton 2)
      ~hooks ~default:Wire.Nothing ~sends:[ (1, 3, Wire.Flag true) ]
  in
  Alcotest.(check bool) "majority wins" true
    (Reliable.get delivery ~default:Wire.Nothing ~src:1 ~dst:3 = Wire.Flag true)

let test_reliable_dropping_relay () =
  let sim = new_sim sparse5 in
  let routing = Routing.build sparse5 ~f:1 in
  let hooks = { Reliable.honest_hooks with forward = (fun ~me:_ _ -> None) } in
  let delivery =
    Reliable.exchange ~net:(Sim.transport sim) ~phase:"t" ~routing ~proto:"t" ~faulty:(Vset.singleton 2)
      ~hooks ~default:Wire.Nothing ~sends:[ (1, 3, Wire.Flag true) ]
  in
  Alcotest.(check bool) "drop is survivable" true
    (Reliable.get delivery ~default:Wire.Nothing ~src:1 ~dst:3 = Wire.Flag true)

let test_reliable_equivocating_source () =
  let sim = new_sim sparse5 in
  let routing = Routing.build sparse5 ~f:1 in
  (* A faulty source sends a different value down each path: the receiver's
     plurality is deterministic, whatever it is. *)
  let counter = ref 0 in
  let hooks =
    {
      Reliable.honest_hooks with
      originate =
        (fun ~me:_ ~dst:_ ~path:_ _ ->
          incr counter;
          Some (Wire.Value { bits = 4; data = [| !counter |] }));
    }
  in
  let delivery =
    Reliable.exchange ~net:(Sim.transport sim) ~phase:"t" ~routing ~proto:"t" ~faulty:(Vset.singleton 1)
      ~hooks ~default:Wire.Nothing ~sends:[ (1, 3, Wire.Flag true) ]
  in
  (* All three copies differ: tie -> default. *)
  Alcotest.(check bool) "tie falls to default" true
    (Reliable.get delivery ~default:Wire.Nothing ~src:1 ~dst:3 = Wire.Nothing)

let test_reliable_injection_filtered () =
  let sim = new_sim sparse5 in
  let routing = Routing.build sparse5 ~f:1 in
  (* Node 2 injects forged packets claiming origin 1 on a bogus route; the
     receivers' route validation rejects them. *)
  let forged =
    { Packet.proto = "t"; origin = 1; final_dst = 3; route = [ 1; 2; 3 ]; payload = Wire.Flag false }
  in
  let hooks =
    { Reliable.honest_hooks with inject = (fun ~me:_ ~subround:_ -> [ forged ]) }
  in
  let delivery =
    Reliable.exchange ~net:(Sim.transport sim) ~phase:"t" ~routing ~proto:"t" ~faulty:(Vset.singleton 2)
      ~hooks ~default:Wire.Nothing ~sends:[ (1, 3, Wire.Flag true) ]
  in
  Alcotest.(check bool) "forgery rejected or out-voted" true
    (Reliable.get delivery ~default:Wire.Nothing ~src:1 ~dst:3 = Wire.Flag true)

let test_reliable_duplicate_send_rejected () =
  let sim = new_sim sparse5 in
  let routing = Routing.build sparse5 ~f:1 in
  Alcotest.check_raises "duplicate pair"
    (Invalid_argument "Reliable.exchange: duplicate send for a pair (use Wire.Batch)")
    (fun () ->
      ignore
        (Reliable.exchange ~net:(Sim.transport sim) ~phase:"t" ~routing ~proto:"t" ~faulty:Vset.empty
           ~hooks:Reliable.honest_hooks ~default:Wire.Nothing
           ~sends:[ (1, 3, Wire.Flag true); (1, 3, Wire.Flag false) ]))

(* Fuzz the reliable layer: a random faulty relay applying random packet
   corruption must never flip an honest logical message. *)
let test_reliable_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"reliable exchange survives random relay attacks"
       QCheck2.Gen.(pair (int_range 0 10_000) (int_range 2 5))
       (fun (seed, bad) ->
         let bad = if bad = 1 || bad = 3 then 2 else bad in
         (* node 1 -> 3 is the multi-hop pair in sparse5; pick the faulty
            relay among the others. *)
         let sim = new_sim sparse5 in
         let routing = Routing.build sparse5 ~f:1 in
         let st = Random.State.make [| seed |] in
         let hooks =
           {
             Reliable.honest_hooks with
             forward =
               (fun ~me:_ (pkt : Packet.t) ->
                 match Random.State.int st 4 with
                 | 0 -> None
                 | 1 -> Some { pkt with payload = Wire.Flag (Random.State.bool st) }
                 | 2 -> Some { pkt with payload = Wire.Nothing }
                 | _ -> Some pkt);
             originate =
               (fun ~me:_ ~dst:_ ~path:_ p ->
                 if Random.State.int st 3 = 0 then None else Some p);
           }
         in
         let delivery =
           Reliable.exchange ~net:(Sim.transport sim) ~phase:"t" ~routing ~proto:"t"
             ~faulty:(Vset.singleton bad) ~hooks ~default:Wire.Nothing
             ~sends:[ (1, 3, Wire.Flag true) ]
         in
         (* Node 1 is honest here (originate only applies to faulty), so the
            flag must arrive whenever the sender is not the faulty one. *)
         Reliable.get delivery ~default:Wire.Nothing ~src:1 ~dst:3 = Wire.Flag true))

(* ---------- EIG ---------- *)

let check_bb_guarantees ~name ~graph ~f ~source ~value ~faulty ?adversary
    ?reliable_hooks () =
  let sim = new_sim graph in
  let routing = Routing.build graph ~f in
  let decisions =
    Eig.broadcast ~net:(Sim.transport sim) ~phase:"bb" ~routing ~f ~source ~value ~default:Wire.Nothing
      ~faulty ?adversary ?reliable_hooks ()
  in
  let honest = List.filter (fun (v, _) -> not (Vset.mem v faulty)) decisions in
  (match honest with
  | [] -> ()
  | (_, d0) :: rest ->
      List.iter
        (fun (v, d) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: node %d agrees" name v)
            true (Wire.equal d d0))
        rest);
  if not (Vset.mem source faulty) then
    List.iter
      (fun (v, d) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: node %d validity" name v)
          true (Wire.equal d value))
      honest

let k4 = Gen.complete ~n:4 ~cap:2
let k7 = Gen.complete ~n:7 ~cap:2

let test_eig_no_faults () =
  check_bb_guarantees ~name:"clean" ~graph:k4 ~f:1 ~source:1 ~value:(Wire.Flag true)
    ~faulty:Vset.empty ()

let test_eig_silent_source () =
  let adversary ~me:_ ~round:_ ~dst:_ _ = [] in
  check_bb_guarantees ~name:"silent source" ~graph:k4 ~f:1 ~source:1
    ~value:(Wire.Flag true) ~faulty:(Vset.singleton 1) ~adversary ()

let test_eig_equivocating_source () =
  (* Source tells even nodes true and odd nodes false. *)
  let adversary ~me:_ ~round ~dst pairs =
    if round = 1 then List.map (fun (l, _) -> (l, Wire.Flag (dst mod 2 = 0))) pairs
    else pairs
  in
  check_bb_guarantees ~name:"equivocating source" ~graph:k4 ~f:1 ~source:1
    ~value:(Wire.Flag true) ~faulty:(Vset.singleton 1) ~adversary ()

let test_eig_lying_relay () =
  let adversary ~me:_ ~round ~dst:_ pairs =
    if round > 1 then List.map (fun (l, _) -> (l, Wire.Flag false)) pairs else pairs
  in
  check_bb_guarantees ~name:"lying relay" ~graph:k4 ~f:1 ~source:1
    ~value:(Wire.Flag true) ~faulty:(Vset.singleton 3) ~adversary ()

let test_eig_f2_two_liars () =
  let adversary ~me ~round:_ ~dst ~pairs:_ = ignore me; ignore dst; [] in
  ignore adversary;
  let adversary ~me:_ ~round:_ ~dst:_ pairs =
    List.map (fun (l, v) -> (l, if v = Wire.Flag true then Wire.Flag false else v)) pairs
  in
  check_bb_guarantees ~name:"two liars f=2" ~graph:k7 ~f:2 ~source:1
    ~value:(Wire.Flag true)
    ~faulty:(Vset.of_list [ 6; 7 ])
    ~adversary ()

let test_eig_incomplete_graph () =
  check_bb_guarantees ~name:"incomplete graph" ~graph:sparse5 ~f:1 ~source:1
    ~value:(Wire.Flag true) ~faulty:(Vset.singleton 2)
    ~adversary:(fun ~me:_ ~round:_ ~dst:_ _ -> [])
    ()

let test_eig_multi_source () =
  let sim = new_sim k4 in
  let routing = Routing.build k4 ~f:1 in
  let inputs = [ (1, Wire.Flag true); (2, Wire.Flag false); (3, Wire.Flag true); (4, Wire.Flag false) ] in
  let adversary ~me:_ ~round:_ ~dst:_ pairs =
    List.map (fun (l, _) -> (l, Wire.Flag true)) pairs
  in
  let decisions =
    Eig.broadcast_all ~net:(Sim.transport sim) ~phase:"bb" ~routing ~f:1 ~inputs ~default:Wire.Nothing
      ~faulty:(Vset.singleton 4) ~adversary ()
  in
  (* For each honest source, every honest node must decide its input. *)
  List.iter
    (fun (s, v) ->
      if s <> 4 then
        List.iter
          (fun node ->
            if node <> 4 then
              Alcotest.(check bool)
                (Printf.sprintf "source %d at node %d" s node)
                true
                (Wire.equal (Hashtbl.find decisions (s, node)) v))
          [ 1; 2; 3 ])
    inputs;
  (* For the faulty source, honest nodes must still agree with each other. *)
  let d1 = Hashtbl.find decisions (4, 1) in
  List.iter
    (fun node ->
      Alcotest.(check bool) "agreement on faulty source" true
        (Wire.equal (Hashtbl.find decisions (4, node)) d1))
    [ 2; 3 ]

let test_eig_requires_n_gt_3f () =
  let sim = new_sim k4 in
  let routing = Routing.build k4 ~f:1 in
  Alcotest.check_raises "n > 3f" (Invalid_argument "Eig.broadcast_all: requires n > 3f")
    (fun () ->
      ignore
        (Eig.broadcast ~net:(Sim.transport sim) ~phase:"bb" ~routing ~f:2 ~source:1 ~value:Wire.Nothing
           ~default:Wire.Nothing ~faulty:Vset.empty ()))

let test_eig_cost_grows_with_f () =
  (* P(n) bits for 1-bit broadcast: verify rounds = f + 1 on the wire. *)
  let sim1 = new_sim k7 in
  let routing = Routing.build k7 ~f:1 in
  ignore
    (Eig.broadcast ~net:(Sim.transport sim1) ~phase:"bb" ~routing ~f:1 ~source:1 ~value:(Wire.Flag true)
       ~default:Wire.Nothing ~faulty:Vset.empty ());
  Alcotest.(check int) "f=1: 2 rounds" 2 (Sim.rounds_run sim1);
  let sim2 = new_sim k7 in
  let routing2 = Routing.build k7 ~f:2 in
  ignore
    (Eig.broadcast ~net:(Sim.transport sim2) ~phase:"bb" ~routing:routing2 ~f:2 ~source:1
       ~value:(Wire.Flag true) ~default:Wire.Nothing ~faulty:Vset.empty ());
  Alcotest.(check int) "f=2: 3 rounds" 3 (Sim.rounds_run sim2)

(* EIG as it validated labels before the per-round hash set: every check is
   a [List.mem] over the level's label list. Decisions must not change. *)
let reference_broadcast_all ~net ?nodes ~phase ~routing ~f ~inputs ~default ~faulty
    ~adversary () =
  let g = Transport.graph net in
  let verts =
    match nodes with None -> Digraph.vertices g | Some vs -> List.sort_uniq compare vs
  in
  let states = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.add states v (Hashtbl.create 64)) verts;
  let state v = Hashtbl.find states v in
  let lookup st label = Option.value ~default (Hashtbl.find_opt st label) in
  List.iter (fun (s, value) -> Hashtbl.replace (state s) [ s ] value) inputs;
  let level1 = List.map (fun (s, _) -> [ s ]) inputs in
  let extend labels =
    List.concat_map
      (fun label ->
        List.filter_map (fun i -> if List.mem i label then None else Some (label @ [ i ])) verts)
      labels
  in
  let total_rounds = f + 1 in
  let rec run_round r labels_prev =
    if r <= total_rounds then begin
      let honest_pairs_for i =
        if r = 1 then
          List.filter_map
            (fun (s, _) -> if s = i then Some ([ s ], lookup (state i) [ s ]) else None)
            inputs
        else
          List.filter_map
            (fun label -> if List.mem i label then None else Some (label, lookup (state i) label))
            labels_prev
      in
      let sends =
        List.concat_map
          (fun i ->
            let base = honest_pairs_for i in
            List.filter_map
              (fun j ->
                if j = i then None
                else
                  let pairs =
                    if Vset.mem i faulty then adversary ~me:i ~round:r ~dst:j base else base
                  in
                  match pairs with
                  | [] -> None
                  | _ ->
                      Some
                        ( i,
                          j,
                          Wire.Batch
                            (List.map (fun (label, body) -> Wire.Labeled { label; body }) pairs) ))
              verts)
          verts
      in
      let delivery =
        Reliable.exchange ~net ~phase ~routing ~proto:(phase ^ ":eig") ~faulty
          ~hooks:Reliable.honest_hooks ~default:Wire.Nothing ~sends
      in
      let labels_now = if r = 1 then level1 else extend labels_prev in
      List.iter
        (fun j ->
          List.iter
            (fun i ->
              if i <> j then
                match Reliable.get delivery ~default:Wire.Nothing ~src:i ~dst:j with
                | Wire.Batch items ->
                    List.iter
                      (function
                        | Wire.Labeled { label; body } ->
                            let stored_label = if r = 1 then label else label @ [ i ] in
                            let valid =
                              if r = 1 then label = [ i ] && List.mem label level1
                              else
                                List.length label = r - 1
                                && (not (List.mem i label))
                                && List.mem stored_label labels_now
                            in
                            if valid && not (Hashtbl.mem (state j) stored_label) then
                              Hashtbl.replace (state j) stored_label body
                        | _ -> ())
                      items
                | _ -> ())
            verts;
          if r > 1 then
            List.iter
              (fun label ->
                if not (List.mem j label) then
                  Hashtbl.replace (state j) (label @ [ j ]) (lookup (state j) label))
              labels_prev)
        verts;
      run_round (r + 1) labels_now
    end
  in
  run_round 1 level1;
  let decisions = Hashtbl.create 16 in
  List.iter
    (fun j ->
      let st = state j in
      let rec resolve label =
        if List.length label = total_rounds then lookup st label
        else begin
          let children =
            List.filter_map
              (fun i -> if List.mem i label then None else Some (resolve (label @ [ i ])))
              verts
          in
          let counts =
            List.fold_left
              (fun acc v ->
                match List.assoc_opt v acc with
                | Some k -> (v, k + 1) :: List.remove_assoc v acc
                | None -> (v, 1) :: acc)
              [] children
          in
          let total = List.length children in
          match List.find_opt (fun (_, k) -> 2 * k > total) counts with
          | Some (v, _) -> v
          | None -> default
        end
      in
      List.iter (fun (s, _) -> Hashtbl.replace decisions (s, j) (resolve [ s ])) inputs)
    verts;
  decisions

(* A faulty node that prefixes its honest pairs with every kind of malformed
   item, each carrying a lie: a label one level too deep, the empty label,
   a label that already contains the relayer, a label rooted at a
   non-source, one naming a vertex outside the participants, and a
   value-flipped duplicate of each honest pair. A malformed item can only
   land in a slot that no decision reads, so equal decisions pin that no
   well-formed item is rejected and that the first of two duplicates wins. *)
let malformed_labels ~sources ~outsider ~me ~round ~dst pairs =
  let lie = Wire.Flag (dst mod 2 = 0) in
  let flip = function Wire.Flag b -> Wire.Flag (not b) | _ -> lie in
  let src = List.hd sources in
  let non_source = List.find (fun v -> not (List.mem v sources)) [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  let depth k = List.filteri (fun i _ -> i < k) in
  let chain = src :: List.filter (fun v -> v <> src && v <> me && v <> dst) [ 1; 2; 3; 4; 5; 6; 7 ] in
  let bad =
    [
      depth round chain;
      [];
      depth (max 0 (round - 2)) chain @ [ me ];
      non_source :: depth (round - 2) (List.tl chain);
      depth (round - 2) chain @ [ outsider ];
    ]
  in
  List.map (fun label -> (label, lie)) bad
  @ List.map (fun (label, v) -> (label, flip v)) pairs
  @ pairs

let test_eig_malformed_labels_match_reference () =
  let run ~name ~graph ?nodes ~f ~inputs ~faulty () =
    let sources = List.map fst inputs in
    let outsider =
      match nodes with
      | Some vs -> List.find (fun v -> not (List.mem v vs)) (Digraph.vertices graph)
      | None -> 99
    in
    let adversary = malformed_labels ~sources ~outsider in
    let routing = Routing.build graph ~f in
    let decide broadcast_all =
      let sim = new_sim graph in
      let d : (int * int, Wire.payload) Hashtbl.t = broadcast_all (Sim.transport sim) in
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) d [])
    in
    let got =
      decide (fun net ->
          Eig.broadcast_all ~net ?nodes ~phase:"bb" ~routing ~f ~inputs ~default:Wire.Nothing
            ~faulty ~adversary ())
    and want =
      decide (fun net ->
          reference_broadcast_all ~net ?nodes ~phase:"bb" ~routing ~f ~inputs
            ~default:Wire.Nothing ~faulty ~adversary ())
    in
    Alcotest.(check int) (name ^ ": decision count") (List.length want) (List.length got);
    List.iter2
      (fun (k, w) (k', g) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: decision (%d,%d)" name (fst k) (snd k))
          true
          (k = k' && Wire.equal w g))
      want got
  in
  let flags = List.map (fun s -> (s, Wire.Flag (s mod 2 = 1))) in
  run ~name:"k4 f=1" ~graph:k4 ~f:1 ~inputs:(flags [ 1; 2; 3; 4 ]) ~faulty:(Vset.singleton 4) ();
  run ~name:"k7 f=2" ~graph:k7 ~f:2 ~inputs:(flags [ 1; 2; 3 ]) ~faulty:(Vset.of_list [ 2; 6 ]) ();
  run ~name:"k6 over 5 participants" ~graph:(Gen.complete ~n:6 ~cap:2) ~nodes:[ 1; 2; 3; 4; 5 ]
    ~f:1 ~inputs:(flags [ 1; 5 ]) ~faulty:(Vset.singleton 5) ()

(* ---------- Phase king ---------- *)

let check_pk_guarantees ~name ~graph ~f ~source ~value ~faulty ?adversary () =
  let sim = new_sim graph in
  let routing = Routing.build graph ~f in
  let decisions =
    Phase_king.broadcast ~net:(Sim.transport sim) ~phase:"pk" ~routing ~f ~source ~value
      ~default:Wire.Nothing ~faulty ?adversary ()
  in
  let honest = List.filter (fun (v, _) -> not (Vset.mem v faulty)) decisions in
  (match honest with
  | [] -> ()
  | (_, d0) :: rest ->
      List.iter
        (fun (v, d) ->
          Alcotest.(check bool) (Printf.sprintf "%s: node %d agrees" name v) true
            (Wire.equal d d0))
        rest);
  if not (Vset.mem source faulty) then
    List.iter
      (fun (v, d) ->
        Alcotest.(check bool) (Printf.sprintf "%s: node %d validity" name v) true
          (Wire.equal d value))
      honest

let k5 = Gen.complete ~n:5 ~cap:2

let test_pk_no_faults () =
  check_pk_guarantees ~name:"pk clean" ~graph:k5 ~f:1 ~source:1 ~value:(Wire.Flag true)
    ~faulty:Vset.empty ()

let test_pk_lying_relay () =
  let adversary ~me:_ ~phase_no:_ ~round:_ ~dst:_ pairs =
    List.map (fun (s, _) -> (s, Wire.Flag false)) pairs
  in
  check_pk_guarantees ~name:"pk liar" ~graph:k5 ~f:1 ~source:1 ~value:(Wire.Flag true)
    ~faulty:(Vset.singleton 5) ~adversary ()

let test_pk_equivocating_source () =
  let adversary ~me:_ ~phase_no:_ ~round ~dst pairs =
    if round = 0 then List.map (fun (s, _) -> (s, Wire.Flag (dst mod 2 = 0))) pairs
    else pairs
  in
  check_pk_guarantees ~name:"pk equivocator" ~graph:k5 ~f:1 ~source:1
    ~value:(Wire.Flag true) ~faulty:(Vset.singleton 1) ~adversary ()

let test_pk_faulty_king () =
  (* Node 1 is the first king; make it faulty and lie in king rounds. *)
  let adversary ~me:_ ~phase_no:_ ~round ~dst pairs =
    if round = 2 then List.map (fun (s, _) -> (s, Wire.Flag (dst mod 2 = 1))) pairs
    else pairs
  in
  check_pk_guarantees ~name:"pk faulty king" ~graph:k5 ~f:1 ~source:2
    ~value:(Wire.Flag true) ~faulty:(Vset.singleton 1) ~adversary ()

let test_pk_multi_source_batch () =
  let sim = new_sim k5 in
  let routing = Routing.build k5 ~f:1 in
  let inputs = List.map (fun s -> (s, Wire.Flag (s mod 2 = 0))) [ 1; 2; 3; 4; 5 ] in
  let adversary ~me:_ ~phase_no:_ ~round:_ ~dst:_ pairs =
    List.map (fun (s, _) -> (s, Wire.Flag true)) pairs
  in
  let decisions =
    Phase_king.broadcast_all ~net:(Sim.transport sim) ~phase:"pk" ~routing ~f:1 ~inputs
      ~default:Wire.Nothing ~faulty:(Vset.singleton 5) ~adversary ()
  in
  List.iter
    (fun (s, v) ->
      (* Honest sources: validity at every honest node. Faulty source:
         agreement among honest nodes. *)
      let honest = [ 1; 2; 3; 4 ] in
      let d1 = Hashtbl.find decisions (s, 1) in
      List.iter
        (fun node ->
          let d = Hashtbl.find decisions (s, node) in
          Alcotest.(check bool)
            (Printf.sprintf "source %d at node %d agreement" s node)
            true (Wire.equal d d1);
          if s <> 5 then
            Alcotest.(check bool)
              (Printf.sprintf "source %d at node %d validity" s node)
              true (Wire.equal d v))
        honest)
    inputs

let test_pk_requires_n_gt_4f () =
  let sim = new_sim k4 in
  let routing = Routing.build k4 ~f:1 in
  Alcotest.check_raises "n > 4f"
    (Invalid_argument "Phase_king.broadcast_all: requires n > 4f") (fun () ->
      ignore
        (Phase_king.broadcast ~net:(Sim.transport sim) ~phase:"pk" ~routing ~f:1 ~source:1
           ~value:Wire.Nothing ~default:Wire.Nothing ~faulty:Vset.empty ()))

(* ---------- Oblivious baseline ---------- *)

let test_oblivious_delivers () =
  let sim = new_sim k4 in
  let routing = Routing.build k4 ~f:1 in
  let data = [| 0xde; 0xad; 0xbe; 0xef |] in
  let decisions =
    Oblivious.broadcast ~net:(Sim.transport sim) ~routing ~f:1 ~source:1 ~value_bits:32 ~data
      ~faulty:Vset.empty ()
  in
  List.iter
    (fun (v, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d" v)
        true
        (Wire.equal d (Wire.Value { bits = 32; data })))
    decisions;
  Alcotest.(check bool) "costs at least L on some link" true
    (List.exists (fun (_, b) -> b >= 32) (Sim.link_bits sim))

let () =
  Alcotest.run "classic"
    [
      ( "routing",
        [
          Alcotest.test_case "direct edges" `Quick test_routing_direct_edges;
          Alcotest.test_case "disjoint paths" `Quick test_routing_disjoint;
          Alcotest.test_case "too sparse" `Quick test_routing_too_sparse;
          Alcotest.test_case "next hop" `Quick test_next_hop;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "honest exchange" `Quick test_reliable_honest;
          Alcotest.test_case "majority beats corruption" `Quick
            test_reliable_majority_beats_corruption;
          Alcotest.test_case "dropping relay" `Quick test_reliable_dropping_relay;
          Alcotest.test_case "equivocating source" `Quick
            test_reliable_equivocating_source;
          Alcotest.test_case "injection filtered" `Quick test_reliable_injection_filtered;
          Alcotest.test_case "duplicate send rejected" `Quick
            test_reliable_duplicate_send_rejected;
          test_reliable_fuzz;
        ] );
      ( "eig",
        [
          Alcotest.test_case "no faults" `Quick test_eig_no_faults;
          Alcotest.test_case "silent source" `Quick test_eig_silent_source;
          Alcotest.test_case "equivocating source" `Quick test_eig_equivocating_source;
          Alcotest.test_case "lying relay" `Quick test_eig_lying_relay;
          Alcotest.test_case "two liars f=2" `Quick test_eig_f2_two_liars;
          Alcotest.test_case "incomplete graph" `Quick test_eig_incomplete_graph;
          Alcotest.test_case "multi source batch" `Quick test_eig_multi_source;
          Alcotest.test_case "requires n > 3f" `Quick test_eig_requires_n_gt_3f;
          Alcotest.test_case "round count" `Quick test_eig_cost_grows_with_f;
          Alcotest.test_case "malformed labels = reference" `Quick
            test_eig_malformed_labels_match_reference;
        ] );
      ( "phase-king",
        [
          Alcotest.test_case "no faults" `Quick test_pk_no_faults;
          Alcotest.test_case "lying relay" `Quick test_pk_lying_relay;
          Alcotest.test_case "equivocating source" `Quick test_pk_equivocating_source;
          Alcotest.test_case "faulty king" `Quick test_pk_faulty_king;
          Alcotest.test_case "multi-source batch" `Quick test_pk_multi_source_batch;
          Alcotest.test_case "requires n > 4f" `Quick test_pk_requires_n_gt_4f;
        ] );
      ( "oblivious",
        [ Alcotest.test_case "delivers value" `Quick test_oblivious_delivers ] );
    ]
