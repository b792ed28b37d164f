open Nab_graph
open Nab_core
module Json = Nab_obs.Json

type result = {
  original : Scenario.t;
  minimized : Scenario.t;
  key : string;
  runs : int;
  row : Runner.row;
}

let violation_key (row : Runner.row) =
  match row.Runner.outcome with
  | Runner.Pass -> None
  | Runner.Error e ->
      let line =
        match String.index_opt e '\n' with Some i -> String.sub e 0 i | None -> e
      in
      Some ("error:" ^ line)
  | Runner.Violation -> (
      match List.find_opt (fun (c : Checker.outcome) -> not c.Checker.ok) row.Runner.checks with
      | Some c -> Some ("check:" ^ c.Checker.name)
      | None -> Some "check:?")

(* ---- candidate moves ---- *)

let rederive (s : Scenario.t) = { s with Scenario.id = Scenario.derive_id s }

let topo_candidates (s : Scenario.t) =
  let open Scenario in
  let minn = (3 * s.f) + 1 in
  (* Try the smallest legal size first, then one step down. *)
  let sizes cur mk =
    List.sort_uniq compare [ minn; cur - 1 ]
    |> List.filter (fun n -> n >= minn && n < cur)
    |> List.map mk
  in
  match s.topo with
  | Complete { n; cap } -> sizes n (fun n -> Complete { n; cap })
  | Ring { n; cap } -> sizes n (fun n -> Ring { n; cap })
  | Chords { n; cap; chord_cap } -> sizes n (fun n -> Chords { n; cap; chord_cap })
  | Random_feasible r -> sizes r.n (fun n -> Random_feasible { r with n })
  | Star_mesh { n; spoke_cap; mesh_cap } ->
      sizes n (fun n -> Star_mesh { n; spoke_cap; mesh_cap })
  | Dumbbell d -> if d.clique > 3 then [ Dumbbell { d with clique = d.clique - 1 } ] else []
  | Twin_cliques t -> if t.half > 2 then [ Twin_cliques { t with half = t.half - 1 } ] else []
  | Hypercube { dims; cap } -> if dims > 2 then [ Hypercube { dims = dims - 1; cap } ] else []
  | Torus { rows; cols; cap } ->
      if cols > 3 then [ Torus { rows; cols = cols - 1; cap } ]
      else if rows > 3 then [ Torus { rows = rows - 1; cols; cap } ]
      else []
  | Fig1 | Fig2 | Explicit _ -> []

let explicit_candidates (s : Scenario.t) =
  let open Scenario in
  match s.topo with
  | Explicit { vertices; edges } ->
      let minn = (3 * s.f) + 1 in
      let source = 1 in
      let vertex_moves =
        if List.length vertices <= minn then []
        else
          List.rev vertices
          |> List.filter (fun v -> v <> source)
          |> List.map (fun v ->
                 Explicit
                   {
                     vertices = List.filter (fun w -> w <> v) vertices;
                     edges =
                       List.filter (fun (a, b, _) -> a <> v && b <> v) edges;
                   })
      in
      let edge_moves =
        List.map
          (fun e -> Explicit { vertices; edges = List.filter (fun e' -> e' <> e) edges })
          edges
      in
      vertex_moves @ edge_moves
  | _ -> []

let candidates (s : Scenario.t) =
  let open Scenario in
  let with_topo topo = rederive { s with topo } in
  let q_moves =
    if s.q > 1 then
      rederive { s with q = 1 }
      :: (if s.q > 2 then [ rederive { s with q = s.q / 2 } ] else [])
    else []
  in
  let l_moves =
    [ 8; 16; 32; 64; 128; 256; 512 ]
    |> List.filter (fun l -> l < s.l_bits)
    |> List.map (fun l_bits -> rederive { s with l_bits })
  in
  let hook_moves =
    Adversary.hook_names
    |> List.filter (fun h -> not (List.mem h s.adversary.disabled))
    |> List.map (fun h ->
           rederive
             { s with adversary = { s.adversary with disabled = s.adversary.disabled @ [ h ] } })
  in
  let f_moves =
    if s.f > 1 then
      rederive { s with f = 1 }
      :: (if s.f > 2 then [ rederive { s with f = s.f - 1 } ] else [])
    else []
  in
  let topo_moves = List.map with_topo (topo_candidates s) in
  let explicit_moves = List.map with_topo (explicit_candidates s) in
  (* Collapsing a family to its edge list does not shrink by itself, so it
     is offered last — once accepted, the vertex/edge moves open up. *)
  let collapse =
    match s.topo with Explicit _ -> [] | _ -> [ Scenario.explicit s ]
  in
  q_moves @ l_moves @ hook_moves @ f_moves @ topo_moves @ explicit_moves @ collapse

let shrink ?(max_runs = 400) s0 =
  let runs = ref 0 in
  let run s =
    incr runs;
    Runner.run_scenario s
  in
  let row0 = run s0 in
  match violation_key row0 with
  | None -> None
  | Some key ->
      let reproduces s =
        if !runs >= max_runs then None
        else
          let row = run s in
          match violation_key row with Some k when k = key -> Some row | _ -> None
      in
      let rec improve cur cur_row =
        if !runs >= max_runs then (cur, cur_row)
        else
          let rec first = function
            | [] -> None
            | c :: tl -> (
                match reproduces c with Some row -> Some (c, row) | None -> first tl)
          in
          match first (candidates cur) with
          | Some (c, row) -> improve c row
          | None -> (cur, cur_row)
      in
      let minimized, row = improve s0 row0 in
      Some { original = s0; minimized; key; runs = !runs; row }

(* ---- repro emission ---- *)

let backend_flag = function `Eig -> "eig" | `Phase_king -> "phase-king"

(* The command-line form of [fl], flags at their defaults omitted. *)
let flags_to_string (fl : Scenario.flags) =
  let d = Scenario.default_flags in
  let opt cond flag value = if cond then Printf.sprintf " --%s %s" flag value else "" in
  String.concat ""
    [
      opt (fl.net <> d.net) "backend"
        (match fl.net with `Sync -> "sync" | `Async -> "async" | `Socket -> "socket");
      opt (fl.latency <> d.latency) "latency" fl.latency;
      opt (fl.jitter <> d.jitter) "jitter" (Printf.sprintf "%g" fl.jitter);
      opt (fl.reorder <> d.reorder) "reorder" fl.reorder;
      opt (fl.crash <> d.crash) "crash" fl.crash;
      opt (fl.fault_seed <> d.fault_seed) "fault-seed" (string_of_int fl.fault_seed);
    ]

let cli_command (s : Scenario.t) ~graph_file =
  let open Scenario in
  if s.adversary.disabled <> [] then None
  else
    match (Adversary.find s.adversary.adv, fault_flags s) with
    | None, _ | _, None -> None
    | Some _, Some faults ->
        (* Streamed scenarios replay through the session layer with the
           runner's exact knobs (window; flag batch stays the default) —
           without these flags the command would replay serially and miss
           stream-only violations. *)
        let stream =
          match s.stream with
          | None -> ""
          | Some w -> Printf.sprintf " --stream %d --stream-window %d" s.q w
        in
        Some
          (Printf.sprintf
             "dune exec bin/nab_cli.exe -- run -g @%s -f %d -l %d --m %d --seed %d -a %s -q %d --flag-backend %s%s%s"
             graph_file s.f s.l_bits s.m s.seed s.adversary.adv s.q
             (backend_flag s.flag_backend) stream (flags_to_string faults))

let replay_command ~scenario_file =
  Printf.sprintf "dune exec bin/campaign.exe -- replay %s" scenario_file

let write_repro ~dir r =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path name = Filename.concat dir name in
  let scenario_file = path "scenario.json" in
  let graph_file = path "network.graph" in
  let dot_file = path "network.dot" in
  let readme_file = path "README.md" in
  let write file contents =
    let oc = open_out file in
    output_string oc contents;
    close_out oc
  in
  write scenario_file (Json.to_string (Scenario.to_json r.minimized) ^ "\n");
  let g = Scenario.graph r.minimized in
  Graphfile.write_file graph_file g;
  write dot_file (Dot.of_digraph ~name:"repro" g);
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "# Repro: %s\n\n\
        Violation key: `%s`\n\
        Original scenario: `%s`\n\
        Shrunk in %d runs to `%s` (n=%d, %d edges).\n\n## Checks\n\n"
       r.minimized.Scenario.id r.key r.original.Scenario.id r.runs
       r.minimized.Scenario.id (Digraph.num_vertices g) (Digraph.num_edges g));
  (match r.row.Runner.outcome with
  | Runner.Error e -> Buffer.add_string buf (Printf.sprintf "The run raises: `%s`\n" e)
  | _ ->
      List.iter
        (fun (c : Checker.outcome) ->
          Buffer.add_string buf
            (Printf.sprintf "- %s %s — %s\n"
               (if c.Checker.ok then "PASS" else "FAIL")
               c.Checker.name c.Checker.detail))
        r.row.Runner.checks);
  Buffer.add_string buf "\n## Replay\n\n```sh\n";
  Buffer.add_string buf (replay_command ~scenario_file ^ "\n");
  (match cli_command r.minimized ~graph_file with
  | Some cmd -> Buffer.add_string buf (cmd ^ "\n")
  | None -> ());
  Buffer.add_string buf "```\n";
  write readme_file (Buffer.contents buf);
  [ scenario_file; graph_file; dot_file; readme_file ]
