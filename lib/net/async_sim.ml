type latency = Zero | Const of float | Uniform of float * float | Exp of float

type partition = { cut : (int * int) list; from_t : float; until_t : float }

type fault_spec = {
  latency : latency;
  jitter : float;
  reorder : float;
  reorder_delay : float;
  crash : (int * float) list;
  partitions : partition list;
  seed : int;
}

let no_faults =
  {
    latency = Zero;
    jitter = 0.0;
    reorder = 0.0;
    reorder_delay = 0.0;
    crash = [];
    partitions = [];
    seed = 0;
  }

let fg x = Printf.sprintf "%g" x

let latency_to_string = function
  | Zero -> "zero"
  | Const x -> Printf.sprintf "const:%s" (fg x)
  | Uniform (lo, hi) -> Printf.sprintf "uniform:%s:%s" (fg lo) (fg hi)
  | Exp m -> Printf.sprintf "exp:%s" (fg m)

let latency_in_range = function
  | Zero -> true
  | Const x -> x >= 0.0
  | Uniform (lo, hi) -> 0.0 <= lo && lo <= hi
  | Exp mean -> mean > 0.0

(* Every range check on a spec, whichever way it was built (flags,
   scenario JSON, code). Written so that NaN fails each test. *)
let validate_spec s =
  let bad fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let early_crash = List.find_opt (fun (_, t) -> not (t >= 0.0)) s.crash in
  let reversed = List.find_opt (fun p -> not (p.from_t <= p.until_t)) s.partitions in
  if not (latency_in_range s.latency) then
    bad "latency %s out of range (want const >= 0, uniform 0 <= LO <= HI, exp mean > 0)"
      (latency_to_string s.latency)
  else if not (s.jitter >= 0.0) then bad "jitter must be >= 0 (got %s)" (fg s.jitter)
  else if not (0.0 <= s.reorder && s.reorder <= 1.0) then
    bad "reorder probability must be within 0..1 (got %s)" (fg s.reorder)
  else if not (s.reorder_delay >= 0.0) then
    bad "reorder delay must be >= 0 (got %s)" (fg s.reorder_delay)
  else
    match (early_crash, reversed) with
    | Some (v, t), _ -> bad "crash time of node %d must be >= 0 (got %s)" v (fg t)
    | None, Some p ->
        bad "partition window from %s until %s ends before it starts" (fg p.from_t)
          (fg p.until_t)
    | None, None -> Ok s

(* The event queue: arrival time + a per-run sequence number (ties broken
   in send order, which at zero faults reproduces the synchronous delivery
   order exactly). *)
module Pq = Map.Make (struct
  type t = float * int

  let compare = compare
end)

type t = {
  l : Packet.t Ledger.t;
  spec : fault_spec;
  crash_t : float option array; (* per dense index *)
  cuts : (int, partition list) Hashtbl.t; (* edge index -> windows *)
  rng : Random.State.t;
  mutable now : float;
  mutable seq : int;
  mutable queue : (int * int * Packet.t) Pq.t; (* in flight *)
  mutable n_pending : int;
  mutable fault_drops : int; (* destroyed by injected faults *)
}

let create ?obs ?keep_events ?(spec = no_faults) g =
  (match validate_spec spec with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Async_sim.create: " ^ e));
  let l = Ledger.create ?obs ?keep_events ~who:"Async_sim.round" g ~bits:Packet.bits in
  let crash_t = Array.make (max 1 (Ledger.nv l)) None in
  List.iter
    (fun (v, time) ->
      let i = Ledger.vertex_index l v in
      if i < 0 then
        invalid_arg
          (Printf.sprintf
             "Async_sim.create: crash entry %d@%s names no vertex of the graph" v
             (fg time));
      crash_t.(i) <-
        (match crash_t.(i) with
        | Some prev -> Some (Float.min prev time)
        | None -> Some time))
    spec.crash;
  let cuts = Hashtbl.create 8 in
  List.iter
    (fun p ->
      List.iter
        (fun (src, dst) ->
          let e = Ledger.edge_id l src dst in
          if e < 0 then
            invalid_arg
              (Printf.sprintf
                 "Async_sim.create: partition cut %d>%d is not a link of the graph"
                 src dst);
          Hashtbl.replace cuts e
            (p :: (match Hashtbl.find_opt cuts e with Some l -> l | None -> [])))
        p.cut)
    spec.partitions;
  {
    l;
    spec;
    crash_t;
    cuts;
    rng = Random.State.make [| spec.seed; 0x45a9; 0xeb17 |];
    now = 0.0;
    seq = 0;
    queue = Pq.empty;
    n_pending = 0;
    fault_drops = 0;
  }

let crashed_at t di time =
  match t.crash_t.(di) with Some c -> time >= c | None -> false

let partitioned t e time =
  match Hashtbl.find_opt t.cuts e with
  | None -> false
  | Some windows ->
      List.exists (fun p -> time >= p.from_t && time < p.until_t) windows

(* Per-message fault delay on top of the round's transmission time. Draws
   happen in a fixed order (latency, jitter, reorder), each gated only on
   the spec — so the random stream, and therefore the whole run, is a pure
   function of (spec, traffic). Returns (fixed_delay, bump_by_round). *)
let sample_delay t =
  let s = t.spec in
  let lat =
    match s.latency with
    | Zero -> 0.0
    | Const x -> x
    | Uniform (lo, hi) -> lo +. (Random.State.float t.rng 1.0 *. (hi -. lo))
    | Exp mean -> -.mean *. log (1.0 -. Random.State.float t.rng 1.0)
  in
  let jit =
    if s.jitter > 0.0 then Random.State.float t.rng 1.0 *. s.jitter else 0.0
  in
  let bump, bump_round =
    if s.reorder > 0.0 && Random.State.float t.rng 1.0 < s.reorder then
      if s.reorder_delay > 0.0 then (s.reorder_delay, false) else (0.0, true)
    else (0.0, false)
  in
  (lat +. jit +. bump, bump_round)

let round t ~phase outbox =
  let l = t.l in
  ignore (Ledger.begin_round l ~phase : int);
  (* Collect this round's accepted sends; arrivals are stamped once the
     round's transmission time is known. *)
  let sends = ref [] in
  for ui = 0 to Ledger.nv l - 1 do
    let v = Ledger.vertex l ui in
    List.iter
      (fun (dst, msg) ->
        if crashed_at t ui t.now then t.fault_drops <- t.fault_drops + 1
        else begin
          let e = Ledger.edge_id l v dst in
          if e < 0 then Ledger.drop l
          else if partitioned t e t.now then t.fault_drops <- t.fault_drops + 1
          else begin
            Ledger.charge l e msg;
            let extra, bump_round = sample_delay t in
            sends := (v, dst, msg, extra, bump_round) :: !sends
          end
        end)
      (outbox v)
  done;
  let duration, bits = Ledger.tally l in
  let round_end = t.now +. duration in
  (* Enqueue arrivals (sends were consed: re-reverse to send order so the
     tie-breaking sequence numbers follow it). *)
  List.iter
    (fun (src, dst, msg, extra, bump_round) ->
      let extra = if bump_round then extra +. duration else extra in
      let arrival = round_end +. extra in
      t.queue <- Pq.add (arrival, t.seq) (src, dst, msg) t.queue;
      t.seq <- t.seq + 1;
      t.n_pending <- t.n_pending + 1)
    (List.rev !sends);
  (* Advance the clock. A traffic-free round with messages still in flight
     jumps to the earliest pending arrival — that is what lets [drain]
     terminate — and charges the idle wait to this phase. *)
  let advance =
    if duration = 0.0 && t.n_pending > 0 then
      match Pq.min_binding_opt t.queue with
      | Some ((at, _), _) -> Float.max 0.0 (at -. t.now)
      | None -> 0.0
    else duration
  in
  t.now <- t.now +. advance;
  Ledger.end_round l ~duration:advance ~bits;
  (* Deliver everything that has arrived by now, in (arrival, seq) order;
     inboxes are consed then stable-sorted by sender — the synchronous
     fabric's construction, so at zero faults the inboxes are identical. *)
  let acc_inbox = Array.make (Ledger.nv l) [] in
  let delivered_to = ref [] in
  let rec pump () =
    match Pq.min_binding_opt t.queue with
    | Some (((at, _) as key), (src, dst, msg)) when at <= t.now ->
        t.queue <- Pq.remove key t.queue;
        t.n_pending <- t.n_pending - 1;
        let di = Ledger.vertex_index l dst in
        if crashed_at t di at then t.fault_drops <- t.fault_drops + 1
        else begin
          if acc_inbox.(di) = [] then delivered_to := di :: !delivered_to;
          acc_inbox.(di) <- (src, msg) :: acc_inbox.(di);
          Ledger.deliver l src dst msg
        end;
        pump ()
    | _ -> ()
  in
  pump ();
  let res = Array.make (Ledger.nv l) [] in
  List.iter
    (fun di ->
      res.(di) <-
        List.stable_sort (fun (a, _) (b, _) -> compare a b) acc_inbox.(di))
    !delivered_to;
  fun v ->
    let di = Ledger.vertex_index l v in
    if di < 0 then [] else res.(di)

let pending_count t = t.n_pending
let drain t ~phase = Ledger.drain t.l ~pending:(fun () -> t.n_pending) (round t ~phase)
let fault_drops t = t.fault_drops

module Async_transport = struct
  type nonrec t = t

  let graph t = Ledger.graph t.l
  let obs t = Ledger.obs t.l
  let round = round
  let pending_count = pending_count
  let drain = drain
  let add_cost t = Ledger.add_cost t.l
  let timing t = Ledger.timing t.l
  let link_bits t = Ledger.link_bits t.l
  let dropped t = Ledger.dropped t.l
  let utilization t = Ledger.utilization t.l
  let events_of_phase t = Ledger.transport_events t.l
  let keeps_events t = Ledger.keeps_events t.l
  let rounds_run t = Ledger.rounds_run t.l
  let close _ = ()
end

let transport (t : t) : Transport.t = Transport.pack (module Async_transport) t

let factory ?(spec = no_faults) () : Transport.factory =
 fun ~obs ~keep_events g -> transport (create ~obs ~keep_events ~spec g)

(* ------------------------ spec parsing / labels ----------------------- *)

let latency_of_string s =
  let parsed =
    match String.split_on_char ':' (String.trim s) with
    | [ "zero" ] -> Some Zero
    | [ "const"; x ] -> Option.map (fun x -> Const x) (float_of_string_opt x)
    | [ "uniform"; lo; hi ] -> (
        match (float_of_string_opt lo, float_of_string_opt hi) with
        | Some lo, Some hi -> Some (Uniform (lo, hi))
        | _ -> None)
    | [ "exp"; m ] -> Option.map (fun m -> Exp m) (float_of_string_opt m)
    | _ -> None
  in
  match parsed with
  | Some l when latency_in_range l -> Ok l
  | Some _ | None ->
      Error
        (Printf.sprintf "bad latency spec %S (want zero | const:T | uniform:LO:HI | exp:MEAN)" s)

let crash_to_string crash =
  String.concat ","
    (List.map (fun (v, time) -> Printf.sprintf "%d@%s" v (fg time)) crash)

let crash_of_string s =
  let s = String.trim s in
  if s = "" then Ok []
  else
    let items = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
          match String.split_on_char '@' (String.trim item) with
          | [ v; time ] -> (
              match (int_of_string_opt v, float_of_string_opt time) with
              | Some v, Some time -> go ((v, time) :: acc) rest
              | _ -> Error (Printf.sprintf "bad crash item %S (want NODE@T)" item))
          | _ -> Error (Printf.sprintf "bad crash item %S (want NODE@T)" item))
    in
    go [] items

let spec_of_flags ~latency ~jitter ~reorder ~crash ~seed =
  let ( let* ) = Result.bind in
  let* latency = latency_of_string latency in
  let* reorder, reorder_delay =
    let num s =
      match float_of_string_opt s with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad reorder spec %S (want P or P:D)" reorder)
    in
    match String.split_on_char ':' (String.trim reorder) with
    | [ "" ] -> Ok (0.0, 0.0)
    | [ p ] ->
        let* p = num p in
        Ok (p, 0.0)
    | [ p; d ] ->
        let* p = num p in
        let* d = num d in
        Ok (p, d)
    | _ -> Error (Printf.sprintf "bad reorder spec %S (want P or P:D)" reorder)
  in
  let* crash = crash_of_string crash in
  validate_spec { latency; jitter; reorder; reorder_delay; crash; partitions = []; seed }

let spec_label spec =
  let parts = ref [] in
  let add p = parts := p :: !parts in
  if spec.seed <> 0 then add (Printf.sprintf "s%d" spec.seed);
  (match spec.partitions with
  | [] -> ()
  | ps ->
      add
        (Printf.sprintf "p%s"
           (String.concat ";"
              (List.map
                 (fun p ->
                   Printf.sprintf "%s@%s-%s"
                     (String.concat "."
                        (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) p.cut))
                     (fg p.from_t) (fg p.until_t))
                 ps))));
  (match spec.crash with
  | [] -> ()
  | c -> add (Printf.sprintf "c%s" (String.concat ";" (List.map (fun (v, time) -> Printf.sprintf "%d@%s" v (fg time)) c))));
  if spec.reorder > 0.0 then
    add
      (if spec.reorder_delay > 0.0 then
         Printf.sprintf "r%s@%s" (fg spec.reorder) (fg spec.reorder_delay)
       else Printf.sprintf "r%s" (fg spec.reorder));
  if spec.jitter > 0.0 then add (Printf.sprintf "j%s" (fg spec.jitter));
  (match spec.latency with Zero -> () | l -> add (latency_to_string l));
  match !parts with [] -> "zero" | ps -> String.concat "+" ps
