open Nab_graph
open Nab_core
module Json = Nab_obs.Json

type topo =
  | Complete of { n : int; cap : int }
  | Ring of { n : int; cap : int }
  | Chords of { n : int; cap : int; chord_cap : int }
  | Random_feasible of {
      n : int;
      f : int;
      p : float;
      min_cap : int;
      max_cap : int;
      gseed : int;
    }
  | Dumbbell of { clique : int; clique_cap : int; bridge_cap : int }
  | Star_mesh of { n : int; spoke_cap : int; mesh_cap : int }
  | Twin_cliques of { half : int; spoke_cap : int; intra_cap : int; cross_cap : int }
  | Hypercube of { dims : int; cap : int }
  | Torus of { rows : int; cols : int; cap : int }
  | Fig1
  | Fig2
  | Explicit of { vertices : int list; edges : (int * int * int) list }

type adversary_spec = { adv : string; disabled : string list }

type backend = Sync | Async of Nab_net.Async_sim.fault_spec | Socket

type t = {
  id : string;
  topo : topo;
  adversary : adversary_spec;
  f : int;
  l_bits : int;
  m : int;
  seed : int;
  q : int;
  flag_backend : [ `Eig | `Phase_king ];
  checks : string list;
  min_gap : float option;
  stream : int option;
  backend : backend;
}

(* ---- identifiers ---- *)

let topo_label = function
  | Complete { n; cap } -> Printf.sprintf "complete-n%d-c%d" n cap
  | Ring { n; cap } -> Printf.sprintf "ring-n%d-c%d" n cap
  | Chords { n; cap; chord_cap } -> Printf.sprintf "chords-n%d-c%d-cc%d" n cap chord_cap
  | Random_feasible { n; f; p; min_cap; max_cap; gseed } ->
      Printf.sprintf "random-n%d-f%d-p%s-c%d.%d-g%d" n f
        (Nab_net.Async_sim.float_to_string p)
        min_cap max_cap gseed
  | Dumbbell { clique; clique_cap; bridge_cap } ->
      Printf.sprintf "dumbbell-k%d-c%d-b%d" clique clique_cap bridge_cap
  | Star_mesh { n; spoke_cap; mesh_cap } ->
      Printf.sprintf "star-n%d-s%d-m%d" n spoke_cap mesh_cap
  | Twin_cliques { half; spoke_cap; intra_cap; cross_cap } ->
      Printf.sprintf "twin-h%d-s%d-i%d-x%d" half spoke_cap intra_cap cross_cap
  | Hypercube { dims; cap } -> Printf.sprintf "cube-d%d-c%d" dims cap
  | Torus { rows; cols; cap } -> Printf.sprintf "torus-%dx%d-c%d" rows cols cap
  | Fig1 -> "fig1"
  | Fig2 -> "fig2"
  | Explicit { vertices; edges } ->
      (* Small content hash so distinct explicit graphs get distinct ids. *)
      let h = ref 5381 in
      let mix x = h := (!h * 33) + x + 1 in
      List.iter mix vertices;
      List.iter
        (fun (s, d, c) ->
          mix s;
          mix d;
          mix c)
        edges;
      Printf.sprintf "explicit-v%d-e%d-%04x" (List.length vertices) (List.length edges)
        (!h land 0xffff)

let adv_label { adv; disabled } =
  if disabled = [] then adv else adv ^ "-no_" ^ String.concat "+" disabled

(* Sync scenarios keep their pre-backend ids (every committed baseline id
   stays byte-identical); async runs append the fault-spec content, so two
   scenarios differing only in injected faults never collide. *)
let derive_id s =
  Printf.sprintf "%s/%s/f%d-l%d-m%d-s%d-q%d%s%s%s" (topo_label s.topo)
    (adv_label s.adversary) s.f s.l_bits s.m s.seed s.q
    (match s.flag_backend with `Eig -> "" | `Phase_king -> "-pk")
    (* streamed runs get their own ids, so every pre-stream baseline id
       stays byte-identical *)
    (match s.stream with
    | None -> ""
    | Some w -> Printf.sprintf "+stream-w%d" w)
    (match s.backend with
    | Sync -> ""
    | Async spec -> "+async-" ^ Nab_net.Async_sim.spec_label spec
    | Socket -> "+socket")

(* ---- construction ---- *)

let invariant_checks =
  [ "agreement"; "validity"; "dc-budget"; "honest-present"; "theorem1-attempts" ]

let make ?id ?(adversary = "none") ?(disabled = []) ?(f = 1) ?(l_bits = 256) ?(m = 16)
    ?(seed = 7) ?(q = 2) ?(flag_backend = `Eig) ?(checks = invariant_checks) ?min_gap
    ?stream ?(backend = Sync) topo () =
  let s =
    {
      id = "";
      topo;
      adversary = { adv = adversary; disabled };
      f;
      l_bits;
      m;
      seed;
      q;
      flag_backend;
      checks;
      min_gap;
      stream;
      backend;
    }
  in
  { s with id = (match id with Some i -> i | None -> derive_id s) }

let with_backend backend s = { s with backend; id = derive_id { s with backend } }

let transport_factory s =
  match s.backend with
  | Sync -> Nab_net.Sim.default_factory
  | Async spec -> Nab_net.Async_sim.factory ~spec ()
  | Socket -> Nab_net.Socket.factory ()

(* ---- the command-line form of a backend ---- *)

type flags = {
  net : [ `Sync | `Async | `Socket ];
  latency : string;
  jitter : float;
  reorder : string;
  crash : string;
  fault_seed : int;
}

let default_flags =
  { net = `Sync; latency = "zero"; jitter = 0.0; reorder = ""; crash = ""; fault_seed = 0 }

let backend_of_flags fl =
  match fl.net with
  | (`Sync | `Socket) when { fl with net = `Sync } <> default_flags ->
      Error
        "fault flags (--latency/--jitter/--reorder/--crash/--fault-seed) require \
         --backend async"
  | `Sync -> Ok Sync
  | `Socket -> Ok Socket
  | `Async ->
      Result.map
        (fun spec -> Async spec)
        (Nab_net.Async_sim.spec_of_flags ~latency:fl.latency ~jitter:fl.jitter
           ~reorder:fl.reorder ~crash:fl.crash ~seed:fl.fault_seed)

(* Partitions exist only in scenario JSON, so partitioned specs have no
   flag form. *)
let fault_flags s =
  match s.backend with
  | Sync -> Some default_flags
  | Socket -> Some { default_flags with net = `Socket }
  | Async spec when spec.partitions <> [] -> None
  | Async spec ->
      let fg = Nab_net.Async_sim.float_to_string in
      Some
        {
          net = `Async;
          latency = Nab_net.Async_sim.latency_to_string spec.latency;
          jitter = spec.jitter;
          reorder =
            (if spec.reorder_delay > 0.0 then fg spec.reorder ^ ":" ^ fg spec.reorder_delay
             else if spec.reorder > 0.0 then fg spec.reorder
             else "");
          crash = Nab_net.Async_sim.crash_to_string spec.crash;
          fault_seed = spec.seed;
        }

(* ---- materialization ---- *)

let graph s =
  match s.topo with
  | Complete { n; cap } -> Gen.complete ~n ~cap
  | Ring { n; cap } -> Gen.ring ~n ~cap
  | Chords { n; cap; chord_cap } -> Gen.ring_with_chords ~n ~cap ~chord_cap
  | Random_feasible { n; f; p; min_cap; max_cap; gseed } ->
      Gen.random_bb_feasible ~n ~f ~p ~min_cap ~max_cap ~seed:gseed
  | Dumbbell { clique; clique_cap; bridge_cap } ->
      Gen.dumbbell ~clique ~clique_cap ~bridge_cap
  | Star_mesh { n; spoke_cap; mesh_cap } -> Gen.star_mesh ~n ~spoke_cap ~mesh_cap
  | Twin_cliques { half; spoke_cap; intra_cap; cross_cap } ->
      Gen.twin_cliques ~half ~spoke_cap ~intra_cap ~cross_cap
  | Hypercube { dims; cap } -> Gen.hypercube ~dims ~cap
  | Torus { rows; cols; cap } -> Gen.torus ~rows ~cols ~cap
  | Fig1 -> Gen.figure1a
  | Fig2 -> Gen.figure2
  | Explicit { vertices; edges } -> Digraph.of_edges ~vertices edges

let config s =
  Nab.config ~f:s.f ~l_bits:s.l_bits ~m:s.m ~seed:s.seed ~flag_backend:s.flag_backend ()

let adversary_t s =
  let base =
    match Adversary.find s.adversary.adv with
    | Some a -> a
    | None -> invalid_arg (Printf.sprintf "Scenario: unknown adversary %S" s.adversary.adv)
  in
  Adversary.with_disabled_hooks s.adversary.disabled base

let input_stream ~l_bits ~seed =
  Bitvec.random_stream l_bits (Random.State.make [| seed; 0x1ca11 |])

let inputs s = input_stream ~l_bits:s.l_bits ~seed:s.seed

let explicit s =
  let g = graph s in
  let s =
    { s with topo = Explicit { vertices = Digraph.vertices g; edges = Digraph.edges g } }
  in
  { s with id = derive_id s }

(* ---- JSON codec ---- *)

let topo_to_json t : Json.t =
  let fam name fields = Json.Obj (("family", Json.Str name) :: fields) in
  match t with
  | Complete { n; cap } -> fam "complete" [ ("n", Json.Int n); ("cap", Json.Int cap) ]
  | Ring { n; cap } -> fam "ring" [ ("n", Json.Int n); ("cap", Json.Int cap) ]
  | Chords { n; cap; chord_cap } ->
      fam "chords"
        [ ("n", Json.Int n); ("cap", Json.Int cap); ("chord_cap", Json.Int chord_cap) ]
  | Random_feasible { n; f; p; min_cap; max_cap; gseed } ->
      fam "random_feasible"
        [
          ("n", Json.Int n);
          ("f", Json.Int f);
          ("p", Json.float p);
          ("min_cap", Json.Int min_cap);
          ("max_cap", Json.Int max_cap);
          ("gseed", Json.Int gseed);
        ]
  | Dumbbell { clique; clique_cap; bridge_cap } ->
      fam "dumbbell"
        [
          ("clique", Json.Int clique);
          ("clique_cap", Json.Int clique_cap);
          ("bridge_cap", Json.Int bridge_cap);
        ]
  | Star_mesh { n; spoke_cap; mesh_cap } ->
      fam "star_mesh"
        [
          ("n", Json.Int n);
          ("spoke_cap", Json.Int spoke_cap);
          ("mesh_cap", Json.Int mesh_cap);
        ]
  | Twin_cliques { half; spoke_cap; intra_cap; cross_cap } ->
      fam "twin_cliques"
        [
          ("half", Json.Int half);
          ("spoke_cap", Json.Int spoke_cap);
          ("intra_cap", Json.Int intra_cap);
          ("cross_cap", Json.Int cross_cap);
        ]
  | Hypercube { dims; cap } -> fam "hypercube" [ ("dims", Json.Int dims); ("cap", Json.Int cap) ]
  | Torus { rows; cols; cap } ->
      fam "torus" [ ("rows", Json.Int rows); ("cols", Json.Int cols); ("cap", Json.Int cap) ]
  | Fig1 -> fam "fig1" []
  | Fig2 -> fam "fig2" []
  | Explicit { vertices; edges } ->
      fam "explicit"
        [
          ("vertices", Json.List (List.map (fun v -> Json.Int v) vertices));
          ( "edges",
            Json.List
              (List.map
                 (fun (s, d, c) -> Json.List [ Json.Int s; Json.Int d; Json.Int c ])
                 edges) );
        ]

let backend_to_string = function `Eig -> "eig" | `Phase_king -> "phase_king"

let fault_spec_to_json (spec : Nab_net.Async_sim.fault_spec) : Json.t =
  Json.Obj
    ([
       ("latency", Json.Str (Nab_net.Async_sim.latency_to_string spec.latency));
       ("jitter", Json.float spec.jitter);
       ("reorder", Json.float spec.reorder);
       ("reorder_delay", Json.float spec.reorder_delay);
       ("crash", Json.Str (Nab_net.Async_sim.crash_to_string spec.crash));
       ("seed", Json.Int spec.seed);
     ]
    @
    match spec.partitions with
    | [] -> []
    | ps ->
        [
          ( "partitions",
            Json.List
              (List.map
                 (fun (p : Nab_net.Async_sim.partition) ->
                   Json.Obj
                     [
                       ( "cut",
                         Json.List
                           (List.map
                              (fun (a, b) -> Json.List [ Json.Int a; Json.Int b ])
                              p.cut) );
                       ("from", Json.float p.from_t);
                       ("until", Json.float p.until_t);
                     ])
                 ps) );
        ])

let to_json s : Json.t =
  Json.Obj
    ([
       ("id", Json.Str s.id);
       ("topo", topo_to_json s.topo);
       ( "adversary",
         Json.Obj
           [
             ("name", Json.Str s.adversary.adv);
             ("disabled", Json.List (List.map (fun h -> Json.Str h) s.adversary.disabled));
           ] );
       ("f", Json.Int s.f);
       ("l_bits", Json.Int s.l_bits);
       ("m", Json.Int s.m);
       ("seed", Json.Int s.seed);
       ("q", Json.Int s.q);
       ("flag_backend", Json.Str (backend_to_string s.flag_backend));
       ("checks", Json.List (List.map (fun c -> Json.Str c) s.checks));
     ]
    @ (match s.min_gap with None -> [] | Some g -> [ ("min_gap", Json.float g) ])
    (* stream/backend emitted only when set, so pre-existing scenario JSON
       stays byte-identical (committed baselines, shrinker repros) *)
    @ (match s.stream with None -> [] | Some w -> [ ("stream", Json.Int w) ])
    @ match s.backend with
      | Sync -> []
      | Async spec -> [ ("backend", fault_spec_to_json spec) ]
      | Socket -> [ ("backend", Json.Str "socket") ])

(* Strict field accessors shared by the decoders. *)
let ( let* ) = Result.bind

let field name conv j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let int_field name = field name Json.get_int
let str_field name = field name Json.get_string
let float_field name = field name Json.get_float
let list_field name = field name Json.get_list

let topo_of_json j =
  let* family = str_field "family" j in
  match family with
  | "complete" ->
      let* n = int_field "n" j in
      let* cap = int_field "cap" j in
      Ok (Complete { n; cap })
  | "ring" ->
      let* n = int_field "n" j in
      let* cap = int_field "cap" j in
      Ok (Ring { n; cap })
  | "chords" ->
      let* n = int_field "n" j in
      let* cap = int_field "cap" j in
      let* chord_cap = int_field "chord_cap" j in
      Ok (Chords { n; cap; chord_cap })
  | "random_feasible" ->
      let* n = int_field "n" j in
      let* f = int_field "f" j in
      let* p = float_field "p" j in
      let* min_cap = int_field "min_cap" j in
      let* max_cap = int_field "max_cap" j in
      let* gseed = int_field "gseed" j in
      Ok (Random_feasible { n; f; p; min_cap; max_cap; gseed })
  | "dumbbell" ->
      let* clique = int_field "clique" j in
      let* clique_cap = int_field "clique_cap" j in
      let* bridge_cap = int_field "bridge_cap" j in
      Ok (Dumbbell { clique; clique_cap; bridge_cap })
  | "star_mesh" ->
      let* n = int_field "n" j in
      let* spoke_cap = int_field "spoke_cap" j in
      let* mesh_cap = int_field "mesh_cap" j in
      Ok (Star_mesh { n; spoke_cap; mesh_cap })
  | "twin_cliques" ->
      let* half = int_field "half" j in
      let* spoke_cap = int_field "spoke_cap" j in
      let* intra_cap = int_field "intra_cap" j in
      let* cross_cap = int_field "cross_cap" j in
      Ok (Twin_cliques { half; spoke_cap; intra_cap; cross_cap })
  | "hypercube" ->
      let* dims = int_field "dims" j in
      let* cap = int_field "cap" j in
      Ok (Hypercube { dims; cap })
  | "torus" ->
      let* rows = int_field "rows" j in
      let* cols = int_field "cols" j in
      let* cap = int_field "cap" j in
      Ok (Torus { rows; cols; cap })
  | "fig1" -> Ok Fig1
  | "fig2" -> Ok Fig2
  | "explicit" ->
      let* vs = list_field "vertices" j in
      let* vertices =
        List.fold_right
          (fun v acc ->
            let* acc = acc in
            match Json.get_int v with
            | Some i -> Ok (i :: acc)
            | None -> Error "explicit vertex is not an int")
          vs (Ok [])
      in
      let* es = list_field "edges" j in
      let* edges =
        List.fold_right
          (fun e acc ->
            let* acc = acc in
            match Json.get_list e with
            | Some [ a; b; c ] -> (
                match (Json.get_int a, Json.get_int b, Json.get_int c) with
                | Some s, Some d, Some cap -> Ok ((s, d, cap) :: acc)
                | _ -> Error "explicit edge entries must be ints")
            | _ -> Error "explicit edge must be [src,dst,cap]")
          es (Ok [])
      in
      Ok (Explicit { vertices; edges })
  | other -> Error (Printf.sprintf "unknown topo family %S" other)

let str_list_field name j =
  let* l = list_field name j in
  List.fold_right
    (fun v acc ->
      let* acc = acc in
      match Json.get_string v with
      | Some s -> Ok (s :: acc)
      | None -> Error (Printf.sprintf "field %S must hold strings" name))
    l (Ok [])

let fault_spec_of_json j : (Nab_net.Async_sim.fault_spec, string) result =
  let* lat_s = str_field "latency" j in
  let* latency = Nab_net.Async_sim.latency_of_string lat_s in
  let* jitter = float_field "jitter" j in
  let* reorder = float_field "reorder" j in
  let* reorder_delay = float_field "reorder_delay" j in
  let* crash_s = str_field "crash" j in
  let* crash = Nab_net.Async_sim.crash_of_string crash_s in
  let* seed = int_field "seed" j in
  let* partitions =
    match Json.member "partitions" j with
    | None -> Ok []
    | Some pj -> (
        match Json.get_list pj with
        | None -> Error "field \"partitions\" must be a list"
        | Some ps ->
            List.fold_right
              (fun pj acc ->
                let* acc = acc in
                let* cut_j = list_field "cut" pj in
                let* cut =
                  List.fold_right
                    (fun e acc ->
                      let* acc = acc in
                      match Json.get_list e with
                      | Some [ a; b ] -> (
                          match (Json.get_int a, Json.get_int b) with
                          | Some a, Some b -> Ok ((a, b) :: acc)
                          | _ -> Error "partition cut entries must be ints")
                      | _ -> Error "partition cut edge must be [src,dst]")
                    cut_j (Ok [])
                in
                let* from_t = float_field "from" pj in
                let* until_t = float_field "until" pj in
                Ok ({ Nab_net.Async_sim.cut; from_t; until_t } :: acc))
              ps (Ok []))
  in
  Nab_net.Async_sim.validate_spec
    {
      Nab_net.Async_sim.latency;
      jitter;
      reorder;
      reorder_delay;
      crash;
      partitions;
      seed;
    }

let of_json j =
  let* id = str_field "id" j in
  let* topo_j = field "topo" Option.some j in
  let* topo = topo_of_json topo_j in
  let* adv_j = field "adversary" Option.some j in
  let* adv = str_field "name" adv_j in
  let* disabled = str_list_field "disabled" adv_j in
  let* f = int_field "f" j in
  let* l_bits = int_field "l_bits" j in
  let* m = int_field "m" j in
  let* seed = int_field "seed" j in
  let* q = int_field "q" j in
  let* backend = str_field "flag_backend" j in
  let* flag_backend =
    match backend with
    | "eig" -> Ok `Eig
    | "phase_king" -> Ok `Phase_king
    | other -> Error (Printf.sprintf "unknown flag_backend %S" other)
  in
  let* checks = str_list_field "checks" j in
  let* min_gap =
    match Json.member "min_gap" j with
    | None -> Ok None
    | Some v -> (
        match Json.get_float v with
        | Some g -> Ok (Some g)
        | None -> Error "field \"min_gap\" has the wrong type")
  in
  let* stream =
    (* absent = serial run: pre-stream scenario JSON decodes unchanged *)
    match Json.member "stream" j with
    | None -> Ok None
    | Some v -> (
        match Json.get_int v with
        | Some w -> Ok (Some w)
        | None -> Error "field \"stream\" has the wrong type")
  in
  let* backend =
    (* absent = Sync: pre-backend scenario JSON decodes unchanged; the
       string "socket" selects the process-per-node backend, an object is
       an async fault spec *)
    match Json.member "backend" j with
    | None -> Ok Sync
    | Some (Json.Str "socket") -> Ok Socket
    | Some (Json.Str other) -> Error (Printf.sprintf "unknown backend %S" other)
    | Some bj ->
        let* spec = fault_spec_of_json bj in
        Ok (Async spec)
  in
  Ok
    {
      id;
      topo;
      adversary = { adv; disabled };
      f;
      l_bits;
      m;
      seed;
      q;
      flag_backend;
      checks;
      min_gap;
      stream;
      backend;
    }

let of_string s =
  let* j = Json.of_string s in
  of_json j

(* ---- combinators ---- *)

let grid ?(adversaries = [ "none" ]) ?(fs = [ 1 ]) ?(ls = [ 256 ]) ?(ms = [ 16 ])
    ?(seeds = [ 7 ]) ?(qs = [ 2 ]) ?(flag_backends = [ `Eig ]) ?checks topos =
  let ( let& ) xs k = List.concat_map k xs in
  let& topo = topos in
  let& adversary = adversaries in
  let& f = fs in
  let& l_bits = ls in
  let& m = ms in
  let& seed = seeds in
  let& q = qs in
  let& flag_backend = flag_backends in
  [ make ~adversary ~f ~l_bits ~m ~seed ~q ~flag_backend ?checks topo () ]

let sample ~trials ~seed =
  let rng = Random.State.make [| seed; 0x50a6 |] in
  List.init trials (fun _ ->
      let f = if Random.State.int rng 4 = 0 then 2 else 1 in
      let n = (3 * f) + 1 + Random.State.int rng 3 in
      let gseed = Random.State.int rng 100_000 in
      let topo =
        if Random.State.bool rng then
          Complete { n; cap = 1 + Random.State.int rng 3 }
        else Random_feasible { n; f; p = 0.85; min_cap = 1; max_cap = 4; gseed }
      in
      let adversary =
        if Random.State.int rng 3 = 0 then
          Printf.sprintf "chaos:%d" (Random.State.int rng 100_000)
        else fst (List.nth Adversary.all (Random.State.int rng (List.length Adversary.all)))
      in
      let l_bits = 64 * (1 + Random.State.int rng 4) in
      let q = 2 + Random.State.int rng 4 in
      (* f = 1 keeps n <= 6, where the Appendix-E theorem oracles are cheap
         — those rows carry the capacity-ratio / oblivious-gap data that
         [campaign analyze] aggregates across a soak. At f = 2 (n up to 9)
         the star enumeration is too expensive to run per sampled row, so
         those scenarios keep the invariant oracles only. *)
      let checks =
        if f = 1 then invariant_checks @ [ "theorem3-ratio"; "oblivious-gap" ]
        else invariant_checks
      in
      make ~adversary ~f ~l_bits ~q ~seed:(Random.State.int rng 9999) ~checks topo ())
