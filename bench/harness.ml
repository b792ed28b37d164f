(* The shared harness of the six artifact benches (kernels, sim, async,
   stream, socket, campaign): one command line, one timing loop, one
   artifact envelope and one required-rows gate, plus the adversary and
   input derivation of the protocol runs they replay.

   Every bench takes the same flags:

     (no flag)               full sweep, written to BENCH_<name>.json
     --quick                 shorter sweep
     --out PATH              write the artifact to PATH instead
     --check                 correctness gates only, run once with one
                             Pool job and once with four
     --verify-artifact PATH  fail unless the artifact at PATH carries every
                             required row (benches that declare a gate)

   An unknown flag, or a flag missing its value, exits 2 with a usage
   line: a typo must never fall through to a sweep that overwrites a
   committed artifact.

   Artifacts share one envelope, {schema, config, results, ...}, with
   schema "nab-bench-<name>/1". Wall-clock artifacts also carry a
   provenance object (OCaml version, recommended domain count, Pool job
   count, NAB_JOBS) so a row can be compared with the one before it;
   simulated-time artifacts are byte-reproducible and carry none. *)

module Json = Nab_obs.Json

(* ------------------------------- runs ------------------------------- *)

let adversary name =
  match Nab_core.Adversary.find name with
  | Some a -> a
  | None -> invalid_arg ("unknown adversary " ^ name)

(* nab_cli's input derivation, so runs here replay its seeds exactly. *)
let inputs_for ~l ~seed = Nab_exp.Scenario.input_stream ~l_bits:l ~seed

(* A serial f = 1 session of [q] instances over [transport]. *)
let run_nab ~transport ~adv g ~l ~q ~seed =
  let config = Nab_core.Nab.config ~f:1 ~l_bits:l ~seed () in
  Nab_core.Nab.run ~transport ~g ~config ~adversary:(adversary adv)
    ~inputs:(inputs_for ~l ~seed) ~q ()

(* ------------------------------ timing ------------------------------ *)

(* Seconds per call of [f], quadrupling the iteration count until one
   timed batch lasts at least [min_time] seconds. *)
let time_per_op ~min_time f =
  ignore (Sys.opaque_identity (f ()));
  let rec run iters =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_time then dt /. float_of_int iters else run (iters * 4)
  in
  run 1

(* ------------------------------ checks ------------------------------ *)

let cases = ref 0
let failures = ref 0

(* Record one correctness case of a bench's --check. *)
let check label ok =
  incr cases;
  if not ok then begin
    incr failures;
    Printf.eprintf "FAIL %s\n%!" label
  end

let run_checks ~name checks =
  List.iter
    (fun jobs ->
      Nab_util.Pool.set_jobs jobs;
      cases := 0;
      failures := 0;
      checks ();
      Printf.printf "%s check at jobs=%d: %d cases, %d failures\n%!" name jobs !cases
        !failures;
      if !failures > 0 then exit 1)
    [ 1; 4 ]

(* ----------------------------- artifacts ----------------------------- *)

let provenance () =
  Json.Obj
    [
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
      ("jobs", Json.Int (Nab_util.Pool.jobs ()));
      ( "nab_jobs",
        match Sys.getenv_opt "NAB_JOBS" with Some s -> Json.Str s | None -> Json.Null );
    ]

(* Writes the envelope; the list holds the fields that follow results. *)
type writer = config:(string * Json.t) list -> results:Json.t -> (string * Json.t) list -> unit

let write_artifact ~name ~wall_clock path ~config ~results extra =
  let json =
    Json.Obj
      ([ ("schema", Json.Str (Printf.sprintf "nab-bench-%s/1" name)); ("config", Json.Obj config) ]
      @ (if wall_clock then [ ("provenance", provenance ()) ] else [])
      @ (("results", results) :: extra))
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------- required-rows gate ------------------------- *)

(* A label and the predicate over the whole artifact that must hold. *)
type requirement = string * (Json.t -> bool)

let get key conv json = Option.bind (Json.member key json) conv

(* Some row of the [section] array satisfies [pred]. *)
let row ?(section = "results") label pred : requirement =
  ( label,
    fun doc ->
      match get section Json.get_list doc with
      | Some rows -> List.exists pred rows
      | None -> false )

let has_provenance : requirement =
  ( "provenance",
    fun doc ->
      match Json.member "provenance" doc with
      | Some p ->
          List.for_all
            (fun k -> Json.member k p <> None)
            [ "ocaml_version"; "recommended_domains"; "jobs"; "nab_jobs" ]
      | None -> false )

let verify_artifact ~wall_clock requirements path =
  let fail msg =
    Printf.eprintf "verify-artifact: %s: %s\n" path msg;
    exit 1
  in
  let doc =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> fail e
    | contents -> (
        match Json.of_string contents with Ok doc -> doc | Error e -> fail ("parse error: " ^ e))
  in
  let requirements = if wall_clock then has_provenance :: requirements else requirements in
  match List.filter (fun (_, holds) -> not (holds doc)) requirements with
  | [] ->
      Printf.printf "verify-artifact: %s: all %d required rows present\n" path
        (List.length requirements)
  | missing ->
      Printf.eprintf "verify-artifact: %s: missing rows:\n" path;
      List.iter (fun (label, _) -> Printf.eprintf "  %s\n" label) missing;
      exit 1

(* ------------------------------- main ------------------------------- *)

type args = { check : bool; quick : bool; out : string option; verify : string option }

let parse ~name ~gated argv =
  let die msg =
    Printf.eprintf "%s: %s\nusage: %s.exe [--quick] [--out PATH] | --check%s\n" name msg name
      (if gated then " | --verify-artifact PATH" else "");
    exit 2
  in
  (* The first occurrence of a valued flag wins. *)
  let value flag prev = function
    | v :: rest when not (String.starts_with ~prefix:"--" v) ->
        (Some (Option.value prev ~default:v), rest)
    | _ -> die (flag ^ " needs a value")
  in
  let rec go a = function
    | [] -> a
    | "--check" :: rest -> go { a with check = true } rest
    | "--quick" :: rest -> go { a with quick = true } rest
    | "--out" :: rest ->
        let out, rest = value "--out" a.out rest in
        go { a with out } rest
    | "--verify-artifact" :: rest when gated ->
        let verify, rest = value "--verify-artifact" a.verify rest in
        go { a with verify } rest
    | arg :: _ -> die ("unknown argument " ^ arg)
  in
  go { check = false; quick = false; out = None; verify = None } argv

(* Runs the bench named [name]: --verify-artifact against [verify] (when
   the bench declares a gate), else --check, else [sweep]. [wall_clock]
   artifacts carry, and are gated on, the provenance object. *)
let run ~name ?(wall_clock = false) ?verify ~check
    (sweep : quick:bool -> write:writer -> unit) =
  let a = parse ~name ~gated:(verify <> None) (List.tl (Array.to_list Sys.argv)) in
  match (a.verify, verify) with
  | Some path, Some requirements -> verify_artifact ~wall_clock requirements path
  | _ when a.check -> run_checks ~name check
  | _ ->
      let out = Option.value a.out ~default:(Printf.sprintf "BENCH_%s.json" name) in
      sweep ~quick:a.quick ~write:(write_artifact ~name ~wall_clock out)
