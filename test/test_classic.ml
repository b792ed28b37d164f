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
          Ref_eig.broadcast_all ~net ?nodes ~phase:"bb" ~routing ~f ~inputs
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

(* A Byzantine EIG sender driven by [st]: to each destination it forwards
   its honest pairs kept, dropped or preceded by a value-changed duplicate,
   plus labels no honest parse accepts — one level too shallow or too
   deep, with a negative vertex, with a vertex outside the participants,
   longer than any level, or empty — and a non-labelled item, all in a
   random rotation. *)
let random_labels st ~verts ~f ~me:_ ~round ~dst pairs =
  let int k = Random.State.int st k in
  let pick l = List.nth l (int (List.length l)) in
  let value () =
    match int 4 with
    | 0 -> Wire.Flag (Random.State.bool st)
    | 1 -> Wire.Nothing
    | 2 -> Wire.Coded { sym_bits = 4; data = [| int 3 |] }
    | _ -> Wire.Batch [ Wire.Flag (Random.State.bool st); Wire.Flag (dst mod 2 = 0) ]
  in
  let level = max 1 (round - 1) in
  let chain k = List.init (max 0 k) (fun _ -> pick verts) in
  let junk () =
    match int 7 with
    | 0 -> chain (level - 1)
    | 1 -> chain (level + 1)
    | 2 -> chain (level - 1) @ [ -1 - int 3 ]
    | 3 -> (-1 - int 3) :: chain (level - 1)
    | 4 -> chain (level - 1) @ [ pick [ 1000; max_int; min_int ] ]
    | 5 -> chain (f + 2 + int 8)
    | _ -> []
  in
  let kept =
    List.concat_map
      (fun ((label, _) as pair) ->
        match int 4 with
        | 0 -> []
        | 1 -> [ (label, value ()); pair ]
        | _ -> [ pair ])
      pairs
  in
  let items = kept @ List.init (int 5) (fun _ -> (junk (), value ())) in
  let k = int (List.length items + 1) in
  List.filteri (fun i _ -> i >= k) items @ List.filteri (fun i _ -> i < k) items

(* Eig against the reference EIG (test/ref_eig) on random feasible graphs,
   participant sets, f, inputs and fault sets (up to f+1 faulty, so
   beyond-model disagreement is compared too) under the random Byzantine
   sender above: the decision tables and the packet traces must be equal. *)
let test_eig_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"eig = reference eig under random label attacks"
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let st = Random.State.make [| seed |] in
         let int k = Random.State.int st k in
         let n = 4 + int 5 in
         let f = int (((n - 1) / 3) + 1) in
         let graph =
           Gen.random_bb_feasible ~n ~f ~p:0.7 ~min_cap:1 ~max_cap:2 ~seed:(int 1000)
         in
         let all = Digraph.vertices graph in
         let extra = if int 2 = 0 then [] else List.filter (fun _ -> int 3 = 0) all in
         let verts = List.filter (fun v -> not (List.mem v extra)) all in
         let verts, nodes =
           if List.length verts > 3 * f then (verts, Some verts) else (all, None)
         in
         let sources = List.filter (fun _ -> int 2 = 0) verts in
         let sources = if sources = [] then [ List.hd verts ] else sources in
         let inputs =
           List.map
             (fun s ->
               (s, if int 2 = 0 then Wire.Flag (int 2 = 0) else Wire.Coded { sym_bits = 4; data = [| s |] }))
             sources
         in
         let faulty = Vset.of_list (List.filter (fun _ -> int 3 = 0) verts) in
         let faulty =
           Vset.of_list (List.filteri (fun i _ -> i <= f) (Vset.elements faulty))
         in
         let routing = Routing.build graph ~f in
         let adv_seed = int 1_000_000 in
         let run broadcast_all =
           let sim = Sim.create graph ~bits:Packet.bits ~keep_events:true in
           let adversary = random_labels (Random.State.make [| adv_seed |]) ~verts ~f in
           let d : (int * int, Wire.payload) Hashtbl.t =
             broadcast_all ~net:(Sim.transport sim) ~adversary
           in
           (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) d []), Sim.events sim)
         in
         let got, got_events =
           run (fun ~net ~adversary ->
               Eig.broadcast_all ~net ?nodes ~phase:"bb" ~routing ~f ~inputs
                 ~default:Wire.Nothing ~faulty ~adversary ())
         and want, want_events =
           run (fun ~net ~adversary ->
               Ref_eig.broadcast_all ~net ?nodes ~phase:"bb" ~routing ~f ~inputs
                 ~default:Wire.Nothing ~faulty ~adversary ())
         in
         List.length got = List.length want
         && List.for_all2 (fun (k, g) (k', w) -> k = k' && Wire.equal g w) got want
         && got_events = want_events))

(* ---------- Phase king ---------- *)

let check_pk_guarantees ~name ~graph ~f ~source ~value ~faulty ?adversary () =
  let sim = new_sim graph in
  let routing = Routing.build graph ~f in
  let by_pair =
    Phase_king.broadcast_all ~net:(Sim.transport sim) ~phase:"pk" ~routing ~f
      ~inputs:[ (source, value) ] ~default:Wire.Nothing ~faulty ?adversary ()
  in
  let decisions =
    List.map (fun v -> (v, Hashtbl.find by_pair (source, v))) (Digraph.vertices graph)
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
        (Phase_king.broadcast_all ~net:(Sim.transport sim) ~phase:"pk" ~routing ~f:1
           ~inputs:[ (1, Wire.Nothing) ] ~default:Wire.Nothing ~faulty:Vset.empty ()))

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
          test_eig_matches_reference;
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
