(* Domain-safe, single-flight memo tables keyed by content fingerprints.
   Values must be pure functions of their key (so a hit is observably
   identical to recomputation) and immutable (so sharing them across pool
   domains is safe). *)

type 'v state = Done of 'v | Building

(* One slot per key. Done slots are linked into an intrusive LRU list
   (head = most recent); Building slots are unlinked and never evicted, so
   a computation in flight always gets to install its result and wake its
   waiters. *)
type 'v slot = {
  skey : string;
  mutable state : 'v state;
  mutable prev : 'v slot option;
  mutable next : 'v slot option;
  mutable linked : bool;
}

type 'v t = {
  name : string;
  lock : Mutex.t;
  settled : Condition.t; (* some Building entry became Done (or vanished) *)
  tbl : (string, 'v slot) Hashtbl.t;
  mutable head : 'v slot option; (* most recently used Done slot *)
  mutable tail : 'v slot option; (* least recently used Done slot *)
  mutable live : int; (* linked (Done) slots *)
  mutable cap : int option; (* None = unbounded (the default) *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; entries : int; evictions : int }

(* The registry powers clear_all/global_stats/set_cap_all across
   heterogeneous value types, so it stores closures rather than the caches
   themselves. *)
let registry_lock = Mutex.create ()

let registry : (string * (unit -> unit) * (unit -> stats) * (int option -> unit)) list ref
    =
  ref []

(* ---- intrusive LRU list (caller holds t.lock) ---- *)

let unlink t s =
  if s.linked then begin
    (match s.prev with Some p -> p.next <- s.next | None -> t.head <- s.next);
    (match s.next with Some n -> n.prev <- s.prev | None -> t.tail <- s.prev);
    s.prev <- None;
    s.next <- None;
    s.linked <- false;
    t.live <- t.live - 1
  end

let push_front t s =
  s.prev <- None;
  s.next <- t.head;
  (match t.head with Some h -> h.prev <- Some s | None -> t.tail <- Some s);
  t.head <- Some s;
  s.linked <- true;
  t.live <- t.live + 1

let touch t s =
  if s.linked && t.head != Some s then begin
    unlink t s;
    push_front t s
  end

(* Evict least-recently-used Done slots until the bound holds. Building
   slots are not in the list, so in-flight computations are never dropped;
   an evicted key simply recomputes on its next request (a miss). *)
let enforce_cap t =
  match t.cap with
  | None -> ()
  | Some cap ->
      while t.live > cap do
        match t.tail with
        | None -> t.live <- 0 (* unreachable: live > 0 implies a tail *)
        | Some lru ->
            unlink t lru;
            Hashtbl.remove t.tbl lru.skey;
            t.evictions <- t.evictions + 1
      done

let stats t =
  Mutex.lock t.lock;
  let s =
    { hits = t.hits; misses = t.misses; entries = t.live; evictions = t.evictions }
  in
  Mutex.unlock t.lock;
  s

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None;
  t.live <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  (* Waiters on a vanished Building entry must wake up and compute for
     themselves. *)
  Condition.broadcast t.settled;
  Mutex.unlock t.lock

let set_cap t cap =
  Mutex.lock t.lock;
  t.cap <- (match cap with Some c when c < 1 -> Some 1 | c -> c);
  enforce_cap t;
  Mutex.unlock t.lock

let create ~name () =
  let t =
    {
      name;
      lock = Mutex.create ();
      settled = Condition.create ();
      tbl = Hashtbl.create 32;
      head = None;
      tail = None;
      live = 0;
      cap = None;
      hits = 0;
      misses = 0;
      evictions = 0;
    }
  in
  Mutex.lock registry_lock;
  registry :=
    (name, (fun () -> clear t), (fun () -> stats t), (fun c -> set_cap t c))
    :: !registry;
  Mutex.unlock registry_lock;
  t

let find t ~key =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.tbl key with
    | Some ({ state = Done v; _ } as s) ->
        touch t s;
        Some v
    | Some { state = Building; _ } | None -> None
  in
  Mutex.unlock t.lock;
  r

let find_or_compute t ~key f =
  Mutex.lock t.lock;
  let counted = ref false in
  let count_miss () =
    if not !counted then begin
      t.misses <- t.misses + 1;
      counted := true
    end
  in
  let rec await () =
    match Hashtbl.find_opt t.tbl key with
    | Some ({ state = Done v; _ } as s) ->
        if not !counted then t.hits <- t.hits + 1;
        touch t s;
        Mutex.unlock t.lock;
        v
    | Some { state = Building; _ } ->
        (* Another domain is computing this key: wait rather than duplicate
           the work. The builder always makes progress on its own domain
           (Pool's batch wait is help-first), so this cannot deadlock. *)
        count_miss ();
        Condition.wait t.settled t.lock;
        await ()
    | None ->
        count_miss ();
        let slot =
          { skey = key; state = Building; prev = None; next = None; linked = false }
        in
        Hashtbl.replace t.tbl key slot;
        Mutex.unlock t.lock;
        (match f () with
        | v ->
            Mutex.lock t.lock;
            (* The slot may have been dropped by clear () while we computed;
               reinstall only if it is still the table's slot for the key. *)
            (match Hashtbl.find_opt t.tbl key with
            | Some s when s == slot ->
                s.state <- Done v;
                push_front t s;
                enforce_cap t
            | Some _ | None -> ());
            Condition.broadcast t.settled;
            Mutex.unlock t.lock;
            v
        | exception e ->
            Mutex.lock t.lock;
            (match Hashtbl.find_opt t.tbl key with
            | Some s when s == slot -> Hashtbl.remove t.tbl key
            | Some _ | None -> ());
            Condition.broadcast t.settled;
            Mutex.unlock t.lock;
            raise e)
  in
  await ()

let snapshot_registry () =
  Mutex.lock registry_lock;
  let r = !registry in
  Mutex.unlock registry_lock;
  r

let clear_all () = List.iter (fun (_, clear, _, _) -> clear ()) (snapshot_registry ())

let set_cap_all cap =
  List.iter (fun (_, _, _, set) -> set cap) (snapshot_registry ())

let global_stats () =
  snapshot_registry ()
  |> List.map (fun (name, _, stats, _) -> (name, stats ()))
  |> List.sort (fun (a, _) (b, _) -> compare a b)
