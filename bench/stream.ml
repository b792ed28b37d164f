(* Goodput benchmark for the streaming session layer (Nab_core.Nab_stream):
   how fast the amortized per-value rate approaches the Theorem-2/3
   capacity ceiling as the submission queue grows, emitting a
   machine-readable BENCH_stream.json so every PR has a trajectory to
   regress against.

   Usage (flags shared by every bench, see harness.ml):
     dune exec bench/stream.exe                   # sweep + BENCH_stream.json
     dune exec bench/stream.exe -- --out F.json   # choose the artifact path
     dune exec bench/stream.exe -- --quick        # smaller L and Q grid
     dune exec bench/stream.exe -- --check        # correctness-only gate:
                                                  # stream decisions and
                                                  # dispute state identical
                                                  # to q serial session
                                                  # broadcasts, both backends
     dune exec bench/stream.exe -- --verify-artifact F.json
                                                  # fail unless the artifact
                                                  # carries every required
                                                  # (topology, q) row and
                                                  # the faulted rows

   The sweep streams q values through one shared fabric for q in the grid
   and reports goodput = L x delivered / wall both absolutely and as a
   fraction of the topology's capacity_ub (min(gamma', 2 rho'), Theorem 2
   — the ceiling Theorem 3 achieves a constant fraction of). Serial
   broadcast pays the full pipeline fill plus a flag round trip per value;
   the stream amortizes both, so the fraction must grow monotonically
   with q. The faulted rows stream a long queue against disputing
   adversaries: dispute control stays bounded by the session's f(f+1)
   budget (charged once, not per value) while wall time holds parity with
   the serial driver despite window rollbacks. All times are simulated,
   so the artifact is byte-reproducible on any machine; the CI gate is
   presence-only, matching kernels.exe and async.exe. *)

open Nab_graph
open Nab_core
open Nab_net

let topologies =
  [
    (* spokes 8x wider than the cross links: the thin waist is the
       bottleneck every instance shares *)
    ("twin", Gen.twin_cliques ~half:3 ~spoke_cap:8 ~intra_cap:8 ~cross_cap:1);
    (* wide spokes over a thin mesh: shallow trees, flag-dominated *)
    ("star", Gen.star_mesh ~n:6 ~spoke_cap:4 ~mesh_cap:1);
    (* uniform torus: deep trees, fill-dominated *)
    ("mesh", Gen.torus ~rows:3 ~cols:4 ~cap:2);
    (* hypercube: deepest pipeline in the set *)
    ("hyper", Gen.hypercube ~dims:4 ~cap:2);
  ]

let qs = [ 1; 4; 16; 64; 256; 1024 ]
let qs_quick = [ 1; 4; 16; 64 ]
let window = 64

(* ------------------------------ running ------------------------------ *)

let config_for ~l ~seed = Nab.config ~f:1 ~l_bits:l ~seed ()

let run_stream ?transport ?(window = window) ~adv g ~l ~q ~seed () =
  let config = config_for ~l ~seed in
  Nab_stream.run ?transport ~window ~g ~config ~adversary:(Harness.adversary adv)
    ~inputs:(Harness.inputs_for ~l ~seed) ~q ()

let run_serial ?transport ~adv g ~l ~q ~seed () =
  let config = config_for ~l ~seed in
  Nab.run ?transport ~g ~config ~adversary:(Harness.adversary adv)
    ~inputs:(Harness.inputs_for ~l ~seed) ~q ()

(* ------------------------------- sweep ------------------------------- *)

module Json = Nab_obs.Json

let capacity_ub g ~source =
  (Params.stars g ~source ~f:1).Params.capacity_ub

(* One (topology, q) cell. A broken invariant is data, not a crash: the
   cell records the exception and the sweep continues. *)
let cell ~l ~seed (name, g) ~cap q =
  let base = [ ("name", Json.Str name); ("q", Json.Int q) ] in
  match run_stream ~adv:"none" g ~l ~q ~seed () with
  | r ->
      let delivered = r.Nab_stream.delivered in
      Json.Obj
        (base
        @ [
            ("goodput", Json.float r.Nab_stream.goodput);
            ("capacity_ub", Json.float cap);
            ("capacity_frac", Json.float (r.Nab_stream.goodput /. cap));
            ("wall", Json.float r.Nab_stream.wall);
            ("per_value", Json.float (r.Nab_stream.wall /. float_of_int q));
            ("data_rounds", Json.Int r.Nab_stream.data_rounds);
            ("flag_batches", Json.Int r.Nab_stream.flag_batches);
            ("rollbacks", Json.Int r.Nab_stream.rollbacks);
            ("delivered", Json.Int delivered);
            ( "agree",
              Json.Bool (delivered = q && Nab.fault_free_agree r.Nab_stream.run) );
          ])
  | exception e -> Json.Obj (base @ [ ("error", Json.Str (Printexc.to_string e)) ])

(* Disputing adversaries over a long queue on the shared fabric, against
   the serial driver on the same inputs: dc_runs is the session total
   (bounded by f(f+1)), not per value. *)
let faulted_cases = [ ("stealthy", 64); ("stealthy", 8); ("ec-liar", 64); ("ec-liar", 8) ]

let faulted_cell ~l ~seed (name, g) (adv, w) =
  let q = 64 in
  let base =
    [
      ("name", Json.Str name);
      ("adversary", Json.Str adv);
      ("q", Json.Int q);
      ("window", Json.Int w);
    ]
  in
  match
    let s = run_serial ~adv g ~l ~q ~seed () in
    let r = run_stream ~window:w ~adv g ~l ~q ~seed () in
    (s, r)
  with
  | s, r ->
      Json.Obj
        (base
        @ [
            ("goodput", Json.float r.Nab_stream.goodput);
            ("stream_wall", Json.float r.Nab_stream.wall);
            ("serial_wall", Json.float s.Nab.total_wall);
            ("speedup", Json.float (s.Nab.total_wall /. r.Nab_stream.wall));
            ("dc_runs", Json.Int r.Nab_stream.run.Nab.dc_count);
            ("rollbacks", Json.Int r.Nab_stream.rollbacks);
            ( "disputes",
              Json.Int (List.length r.Nab_stream.run.Nab.disputes) );
          ])
  | exception e -> Json.Obj (base @ [ ("error", Json.Str (Printexc.to_string e)) ])

let sweep ~quick ~(write : Harness.writer) =
  let l = if quick then 128 else 256 in
  let grid = if quick then qs_quick else qs in
  let seed = 7 in
  let results =
    List.concat_map
      (fun (name, g) ->
        let source = (config_for ~l ~seed).Nab.source in
        (match Capacity.verify g ~source ~f:1 with
        | Ok () -> ()
        | Error e -> Printf.printf "%s: capacity witness FAILED: %s\n%!" name e);
        let cap = capacity_ub g ~source in
        Printf.printf "%s: capacity_ub %.1f\n%!" name cap;
        List.map (cell ~l ~seed (name, g) ~cap) grid)
      topologies
  in
  let faulted =
    List.map (faulted_cell ~l ~seed (List.hd topologies)) faulted_cases
  in
  let get row k p = Harness.get k p row in
  List.iter
    (fun row ->
      match (get row "name" Json.get_string, get row "q" Json.get_int) with
      | Some name, Some q -> (
          match (get row "goodput" Json.get_float, get row "capacity_frac" Json.get_float)
          with
          | Some gp, Some frac ->
              Printf.printf "  %-5s q=%-4d goodput=%7.3f frac=%.3f batches=%s\n" name q
                gp frac
                (match get row "flag_batches" Json.get_int with
                | Some b -> string_of_int b
                | None -> "?")
          | _ ->
              Printf.printf "  %-5s q=%-4d ERROR %s\n" name q
                (Option.value ~default:"?" (get row "error" Json.get_string)))
      | _ -> ())
    results;
  List.iter
    (fun row ->
      match
        ( get row "adversary" Json.get_string,
          get row "window" Json.get_int,
          get row "speedup" Json.get_float )
      with
      | Some adv, Some w, Some sp ->
          Printf.printf "  twin/%-8s w=%-3d speedup=%.2f dc=%s rollbacks=%s\n" adv w sp
            (match get row "dc_runs" Json.get_int with
            | Some d -> string_of_int d
            | None -> "?")
            (match get row "rollbacks" Json.get_int with
            | Some r -> string_of_int r
            | None -> "?")
      | _ -> ())
    faulted;
  write
    ~config:
      [
        ("quick", Json.Bool quick);
        ("l_bits", Json.Int l);
        ("window", Json.Int window);
        ("seed", Json.Int seed);
      ]
    ~results:(Json.List results)
    [ ("faulted", Json.List faulted) ]

(* ------------------------------- check ------------------------------- *)

(* Everything the protocol decides, walls excluded: the stream must be a
   pure scheduling transformation of the serial session. *)
let decisions_sig (r : Nab.run_report) =
  let b = Buffer.create 512 in
  List.iter
    (fun (i : Nab.instance_report) ->
      Buffer.add_string b
        (Printf.sprintf "k=%d vb=%d g=%d r=%d mm=%b dc=%b red=%b|" i.Nab.k
           i.Nab.value_bits i.Nab.gamma_k i.Nab.rho_k i.Nab.mismatch i.Nab.dc_run
           i.Nab.reduced_to_phase1);
      List.iter
        (fun (v, bv) ->
          Buffer.add_string b (Printf.sprintf "%d:%s " v (Bitvec.to_hex bv)))
        i.Nab.decisions;
      List.iter
        (fun (x, y) -> Buffer.add_string b (Printf.sprintf "d%d,%d " x y))
        i.Nab.new_disputes;
      Buffer.add_char b '\n')
    r.Nab.instances;
  Buffer.add_string b
    (Printf.sprintf "dc=%d disputes=%d" r.Nab.dc_count (List.length r.Nab.disputes));
  Buffer.contents b

let run_checks () =
  let check = Harness.check in
  let equiv ?transport ?flag_batch ~adv ~q label g =
    let l = 256 in
    let seed = 7 in
    let config = config_for ~l ~seed in
    let inputs = Harness.inputs_for ~l ~seed in
    let s =
      Nab.run ?transport ~g ~config ~adversary:(Harness.adversary adv) ~inputs ~q ()
    in
    let r =
      Nab_stream.run ?transport ~window ?flag_batch ~g ~config
        ~adversary:(Harness.adversary adv) ~inputs ~q ()
    in
    check
      (label ^ " decisions == serial")
      (decisions_sig s = decisions_sig r.Nab_stream.run);
    check
      (label ^ " final graph == serial")
      (Digraph.equal s.Nab.final_graph r.Nab_stream.run.Nab.final_graph)
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun adv -> equiv ~adv ~q:4 (Printf.sprintf "%s/%s" name adv) g)
        [ "none"; "ec-liar" ])
    (("complete", Gen.complete ~n:4 ~cap:2) :: topologies);
  equiv ~adv:"stealthy" ~q:6 "twin/stealthy" (List.assoc "twin" topologies);
  (* flag-tampering adversaries carry serial fidelity only at batch 1 *)
  equiv ~adv:"false-flag" ~flag_batch:1 ~q:4 "complete/false-flag/batch1"
    (Gen.complete ~n:4 ~cap:2);
  (* the async event-driven backend must schedule to the same decisions *)
  let async = Async_sim.factory ~spec:Async_sim.no_faults () in
  List.iter
    (fun adv ->
      equiv ~transport:async ~adv ~q:4
        (Printf.sprintf "twin/%s/async" adv)
        (List.assoc "twin" topologies))
    [ "none"; "ec-liar" ]

(* -------------------------- artifact verify -------------------------- *)

(* Presence-only gate, mirroring kernels.exe: every (topology, q) cell of
   the full sweep grid and every faulted row must exist and carry either
   its measurements or a recorded error — no silent shrinkage. *)
let required_rows =
  let recorded key conv row =
    Harness.get key conv row <> None || Harness.get "error" Json.get_string row <> None
  in
  List.concat_map
    (fun (name, _) ->
      List.map
        (fun q ->
          Harness.row (Printf.sprintf "%s q=%d" name q) (fun row ->
              Harness.get "name" Json.get_string row = Some name
              && Harness.get "q" Json.get_int row = Some q
              && recorded "goodput" Json.get_float row))
        qs)
    topologies
  @ List.map
      (fun (adv, w) ->
        Harness.row ~section:"faulted" (Printf.sprintf "faulted %s w=%d" adv w) (fun row ->
            Harness.get "adversary" Json.get_string row = Some adv
            && Harness.get "window" Json.get_int row = Some w
            && recorded "dc_runs" Json.get_int row))
      faulted_cases

(* ------------------------------- main ------------------------------- *)

let () = Harness.run ~name:"stream" ~verify:required_rows ~check:run_checks sweep
