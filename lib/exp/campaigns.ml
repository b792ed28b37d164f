open Nab_graph

let theorem_checks =
  Scenario.invariant_checks @ [ "theorem3-ratio"; "capacity-witness" ]

let gap_checks = theorem_checks @ [ "oblivious-gap" ]

(* The E8 gap network: K4 with every link at capacity [c] except a single
   thin 2<->3 link — the family where capacity-oblivious broadcast is
   arbitrarily worse than NAB. *)
let thin_k4 c : Scenario.topo =
  let g = Gen.complete ~n:4 ~cap:c in
  let g = Digraph.remove_pair g 2 3 in
  let g = Digraph.add_edge g ~src:2 ~dst:3 ~cap:1 in
  let g = Digraph.add_edge g ~src:3 ~dst:2 ~cap:1 in
  Scenario.Explicit { vertices = Digraph.vertices g; edges = Digraph.edges g }

let quick () =
  let open Scenario in
  (* Graph-level theorem validation: fault-free runs, one per family, with
     the full oracle set (tractable Appendix-E enumeration at these sizes). *)
  let bounds =
    List.map
      (fun topo -> make ~checks:theorem_checks topo ())
      [
        Complete { n = 4; cap = 2 };
        Complete { n = 5; cap = 1 };
        Chords { n = 6; cap = 2; chord_cap = 2 };
        Star_mesh { n = 5; spoke_cap = 2; mesh_cap = 1 };
        Dumbbell { clique = 3; clique_cap = 2; bridge_cap = 1 };
        Twin_cliques { half = 2; spoke_cap = 4; intra_cap = 4; cross_cap = 1 };
        Hypercube { dims = 3; cap = 1 };
        Random_feasible { n = 5; f = 1; p = 0.8; min_cap = 1; max_cap = 3; gseed = 42 };
      ]
  in
  (* The introduction's gap claim, mechanically: oblivious EIG stays under
     the Theorem-2 ceiling while NAB's guaranteed rate beats it by at least
     min_gap on the thin-link families. *)
  let gap =
    [
      make ~checks:gap_checks ~min_gap:2.0 (thin_k4 8) ();
      make ~checks:gap_checks ~min_gap:1.0 (thin_k4 2) ();
      make ~checks:gap_checks
        (Dumbbell { clique = 3; clique_cap = 4; bridge_cap = 1 })
        ();
    ]
  in
  (* Every adversary in the zoo, on two families, protocol invariants only
     (q = 3 exercises the instance-to-instance dispute state). *)
  let adversaries =
    grid
      ~adversaries:
        [
          "dormant";
          "crash";
          "phase1-corrupt";
          "source-equivocate";
          "ec-liar";
          "false-flag";
          "stealthy";
          "dc-frame";
          "garbage";
          "chaos";
          "adaptive-ec-liar";
        ]
      ~qs:[ 3 ]
      [ Complete { n = 4; cap = 2 }; Chords { n = 6; cap = 2; chord_cap = 2 } ]
  in
  (* f = 2, and off-default configuration corners. *)
  let corners =
    grid
      ~adversaries:[ "ec-liar"; "stealthy"; "chaos:99" ]
      ~fs:[ 2 ] ~qs:[ 3 ]
      [ Complete { n = 7; cap = 1 } ]
    @ [
        make ~adversary:"ec-liar" ~flag_backend:`Phase_king (Complete { n = 4; cap = 2 }) ();
        make ~adversary:"ec-liar" ~m:8 ~l_bits:128 (Complete { n = 4; cap = 2 }) ();
        make ~adversary:"chaos:1337" ~q:4
          (Random_feasible { n = 5; f = 1; p = 0.8; min_cap = 1; max_cap = 3; gseed = 42 })
          ();
      ]
  in
  (* The streaming session layer as a campaign axis: multiplexed scheduling
     (window > 1, batched flags, rollback on dispute) must decide exactly
     what the serial driver decides, on every backend the campaign runs. *)
  let stream_checks = Scenario.invariant_checks @ [ "stream-equiv" ] in
  let stream =
    [
      make ~stream:8 ~q:6 ~checks:stream_checks
        (Chords { n = 6; cap = 2; chord_cap = 2 })
        ();
      make ~stream:4 ~q:6 ~adversary:"ec-liar" ~checks:stream_checks
        (Complete { n = 4; cap = 2 })
        ();
      make ~stream:4 ~q:5 ~adversary:"stealthy" ~checks:stream_checks
        (Twin_cliques { half = 2; spoke_cap = 4; intra_cap = 4; cross_cap = 1 })
        ();
    ]
  in
  bounds @ gap @ adversaries @ corners @ stream

let soak ~trials ~seed = Scenario.sample ~trials ~seed

