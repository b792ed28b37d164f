(* Wall-clock accounting for the repo benchmark, taken from outside the
   library: spans around calls into public functions, plus a
   [Transport.factory] wrapper that times every call a protocol makes on its
   per-instance transport.

   A span's self time is its duration minus the durations of the spans
   opened inside it. Times are integer nanoseconds from a monotonic clock,
   so the self times of a span tree sum {e exactly} to the root's duration:
   nothing is lost to rounding, and a traced run's wall splits into layer
   self times plus an unattributed remainder with no residue. *)

open Nab_net

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type frame = { start : int; mutable inner : int }

type t = {
  names : (string, int) Hashtbl.t;
  mutable labels : string array;
  mutable self_ns : int array;
  mutable calls : int array;
  mutable stack : frame list;
  counters : (string, int) Hashtbl.t;
}

let create () =
  {
    names = Hashtbl.create 64;
    labels = [||];
    self_ns = [||];
    calls = [||];
    stack = [];
    counters = Hashtbl.create 16;
  }

(* Interned span names: the hot path (one span per transport round and per
   outbox call) indexes arrays instead of hashing on every exit. *)
let key t name =
  match Hashtbl.find_opt t.names name with
  | Some k -> k
  | None ->
      let k = Hashtbl.length t.names in
      Hashtbl.add t.names name k;
      if k >= Array.length t.self_ns then begin
        let grow a fill = Array.append a (Array.make (max 16 (Array.length a)) fill) in
        t.labels <- grow t.labels "";
        t.self_ns <- grow t.self_ns 0;
        t.calls <- grow t.calls 0
      end;
      t.labels.(k) <- name;
      k

(* [measure_k t k f] runs [f] as span [k] and returns its result with the
   span's full duration. The span closes on exceptions too. *)
let measure_k t k f =
  let fr = { start = now_ns (); inner = 0 } in
  t.stack <- fr :: t.stack;
  let finish () =
    let dur = now_ns () - fr.start in
    (match t.stack with
    | top :: rest when top == fr -> t.stack <- rest
    | _ -> invalid_arg "Timing: spans closed out of order");
    t.self_ns.(k) <- t.self_ns.(k) + dur - fr.inner;
    t.calls.(k) <- t.calls.(k) + 1;
    (match t.stack with parent :: _ -> parent.inner <- parent.inner + dur | [] -> ());
    dur
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
      ignore (finish () : int);
      raise e

let span_k t k f = fst (measure_k t k f)
let span t name f = span_k t (key t name) f
let measure t name f = measure_k t (key t name) f

let count t name n =
  Hashtbl.replace t.counters name (n + Option.value ~default:0 (Hashtbl.find_opt t.counters name))

let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)

(* Every span name seen, with its accumulated self time and call count. *)
let spans t =
  List.init (Hashtbl.length t.names) (fun k -> (t.labels.(k), t.self_ns.(k), t.calls.(k)))

let self_ns t name =
  match Hashtbl.find_opt t.names name with Some k -> t.self_ns.(k) | None -> 0

let calls t name =
  match Hashtbl.find_opt t.names name with Some k -> t.calls.(k) | None -> 0

let total_self_ns t = List.fold_left (fun acc (_, ns, _) -> acc + ns) 0 (spans t)

(* ---- the timing transport ---- *)

(* Span names: [transport.create], [transport.close], [transport.query]
   (accessors such as timing, link_bits, events_of_phase),
   [transport.round_self.<phase>] (round and drain calls, excluding the
   outbox closures) and [proto.outbox.<phase>] (the send-side compute inside
   those closures). Each phase name is interned once per transport. *)
module Timed = struct
  type nonrec t = {
    tr : t;
    net : Transport.t;
    on_close : unit -> unit;
    query : int;
    phases : (string, int * int) Hashtbl.t;
  }

  let query h f = span_k h.tr h.query f

  let phase_keys h phase =
    match Hashtbl.find_opt h.phases phase with
    | Some ks -> ks
    | None ->
        let ks =
          (key h.tr ("transport.round_self." ^ phase), key h.tr ("proto.outbox." ^ phase))
        in
        Hashtbl.add h.phases phase ks;
        ks

  let graph h = query h (fun () -> Transport.graph h.net)
  let obs h = query h (fun () -> Transport.obs h.net)

  let round h ~phase outbox =
    let round_k, outbox_k = phase_keys h phase in
    span_k h.tr round_k (fun () ->
        Transport.round h.net ~phase (fun v -> span_k h.tr outbox_k (fun () -> outbox v)))

  let pending_count h = query h (fun () -> Transport.pending_count h.net)

  let drain h ~phase =
    let round_k, _ = phase_keys h phase in
    span_k h.tr round_k (fun () -> Transport.drain h.net ~phase)

  let add_cost h ~phase c = query h (fun () -> Transport.add_cost h.net ~phase c)
  let timing h = query h (fun () -> Transport.timing h.net)
  let link_bits h = query h (fun () -> Transport.link_bits h.net)
  let dropped h = query h (fun () -> Transport.dropped h.net)
  let utilization h = query h (fun () -> Transport.utilization h.net)
  let events_of_phase h p = query h (fun () -> Transport.events_of_phase h.net p)
  let keeps_events h = query h (fun () -> Transport.keeps_events h.net)
  let rounds_run h = query h (fun () -> Transport.rounds_run h.net)

  let close h =
    span h.tr "transport.close" (fun () ->
        Fun.protect ~finally:h.on_close (fun () -> Transport.close h.net))
end

let wrap_with t create : Transport.factory =
 fun ~obs ~keep_events g ->
  let net, on_close = span t "transport.create" (fun () -> create ~obs ~keep_events g) in
  Transport.pack
    (module Timed)
    { Timed.tr = t; net; on_close; query = key t "transport.query"; phases = Hashtbl.create 8 }

let factory t (inner : Transport.factory) =
  wrap_with t (fun ~obs ~keep_events g -> (inner ~obs ~keep_events g, ignore))

(* The socket backend built from [Socket.create] rather than
   [Socket.factory], so the wrapper keeps the fleet handle: after each close
   it adds the fleet's real traffic to the [socket.bytes] and
   [socket.frames] counters. *)
let socket_factory t =
  wrap_with t (fun ~obs ~keep_events g ->
      let fleet = Socket.create ~obs ~keep_events g in
      let on_close () =
        List.iter
          (fun (_, (s : Socket.stats)) ->
            count t "socket.bytes" s.Socket.bytes_sent;
            count t "socket.frames" s.Socket.frames_sent)
          (Socket.node_stats fleet)
      in
      (Socket.transport fleet, on_close))
