open Nab_net

let pp_phase_breakdown fmt (i : Nab.instance_report) =
  Format.fprintf fmt "@[<v>%-18s %6s %12s %12s %12s@," "phase" "rounds" "wall"
    "bottleneck" "bits";
  List.iter
    (fun (s : Sim.phase_stat) ->
      Format.fprintf fmt "%-18s %6d %12.2f %12.2f %12d@," s.Sim.phase s.Sim.rounds
        s.Sim.wall s.Sim.bottleneck s.Sim.bits_total)
    i.Nab.phase_stats;
  (match i.Nab.utilization with
  | [] ->
      (* No link ever carried a bit — e.g. a single-vertex graph or an
         all-analytic instance; say so rather than rendering nothing. *)
      Format.fprintf fmt "no link traffic@,"
  | links ->
      let busiest =
        List.sort (fun (_, a) (_, b) -> compare b a) links
        |> List.filteri (fun idx _ -> idx < 5)
      in
      Format.fprintf fmt "busiest links:";
      List.iter
        (fun ((s, d), u) -> Format.fprintf fmt " %d->%d %.0f%%" s d (100.0 *. u))
        busiest;
      Format.fprintf fmt "@,");
  Format.fprintf fmt "@]"

(* ---------- JSON encoding ---------- *)

module J = Nab_obs.Json

let dispute_json (a, b) = J.List [ J.Int a; J.Int b ]

let backend_json = function `Eig -> J.Str "eig" | `Phase_king -> J.Str "phase_king"

let config_json (c : Nab.config) =
  J.Obj
    [
      ("f", J.Int c.Nab.f);
      ("source", J.Int c.Nab.source);
      ("l_bits", J.Int c.Nab.l_bits);
      ("m", J.Int c.Nab.m);
      ("seed", J.Int c.Nab.seed);
      ("flag_backend", backend_json c.Nab.flag_backend);
    ]

let graph_json g =
  J.Obj
    [
      ("vertices", J.List (List.map (fun v -> J.Int v) (Nab_graph.Digraph.vertices g)));
      ( "edges",
        J.List
          (List.map
             (fun (s, d, c) -> J.List [ J.Int s; J.Int d; J.Int c ])
             (Nab_graph.Digraph.edges g)) );
    ]

let to_json (i : Nab.instance_report) =
  J.Obj
    [
      ("k", J.Int i.Nab.k);
      ("value_bits", J.Int i.Nab.value_bits);
      ("gamma_k", J.Int i.Nab.gamma_k);
      ("rho_k", J.Int i.Nab.rho_k);
      ( "decisions",
        J.List
          (List.map
             (fun (v, bv) ->
               J.Obj
                 [
                   ("node", J.Int v);
                   ("bits", J.Int (Bitvec.length bv));
                   ("hex", J.Str (Bitvec.to_hex bv));
                 ])
             i.Nab.decisions) );
      ("mismatch", J.Bool i.Nab.mismatch);
      ("dc_run", J.Bool i.Nab.dc_run);
      ("reduced_to_phase1", J.Bool i.Nab.reduced_to_phase1);
      ("coding_attempts", J.Int i.Nab.coding_attempts);
      ("wall_time", J.float i.Nab.wall_time);
      ("pipelined_time", J.float i.Nab.pipelined_time);
      ( "phase_stats",
        J.List
          (List.map
             (fun (s : Sim.phase_stat) ->
               J.Obj
                 [
                   ("phase", J.Str s.Sim.phase);
                   ("rounds", J.Int s.Sim.rounds);
                   ("wall", J.float s.Sim.wall);
                   ("bottleneck", J.float s.Sim.bottleneck);
                   ("bits_total", J.Int s.Sim.bits_total);
                   ("extra", J.float s.Sim.extra);
                 ])
             i.Nab.phase_stats) );
      ( "utilization",
        J.List
          (List.map
             (fun ((s, d), u) ->
               J.Obj [ ("src", J.Int s); ("dst", J.Int d); ("u", J.float u) ])
             i.Nab.utilization) );
      ("new_disputes", J.List (List.map dispute_json i.Nab.new_disputes));
    ]

let run_to_json (r : Nab.run_report) =
  J.Obj
    [
      ("config", config_json r.Nab.config);
      ("adversary", J.Str r.Nab.adversary_name);
      ( "faulty",
        J.List (List.map (fun v -> J.Int v) (Nab_graph.Vset.elements r.Nab.faulty)) );
      ("instances", J.List (List.map to_json r.Nab.instances));
      ("dc_count", J.Int r.Nab.dc_count);
      ("disputes", J.List (List.map dispute_json r.Nab.disputes));
      ("final_graph", graph_json r.Nab.final_graph);
      ("total_wall", J.float r.Nab.total_wall);
      ("total_pipelined", J.float r.Nab.total_pipelined);
      ("throughput_wall", J.float r.Nab.throughput_wall);
      ("throughput_pipelined", J.float r.Nab.throughput_pipelined);
    ]
