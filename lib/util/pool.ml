(* Lazily-spawned, process-lifetime domain pool. Results are always keyed
   by input index, so parallel maps are observably identical to List.map;
   the caller of a batch executes queued tasks of ITS OWN batch while it
   waits, which makes nested maps deadlock-free (whoever waits, works on
   what it is waiting for).

   The restriction to the caller's own batch is load-bearing: a caller that
   stole arbitrary queued tasks could capture, under a stack frame that
   logically owns a single-flight cache slot (Plan_cache's Building state),
   an unrelated task that blocks waiting for that very slot — or two
   builders could each capture a task waiting on the other's slot. Either
   way every domain sleeps and the process deadlocks. Own-batch helping
   keeps the wait-for graph a tree: a builder's nested batches contain no
   cache waits, so builders terminate and cache waiters always wake. *)

type batch = { mutable remaining : int; mutable failure : (int * exn) option }

type pool = {
  lock : Mutex.t;
  work : Condition.t; (* the queue may have become non-empty *)
  settled : Condition.t; (* some batch reached remaining = 0 *)
  queue : (batch * (unit -> unit)) Queue.t;
  mutable workers : int;
  mutable handles : unit Domain.t list;
  mutable shutdown : bool;
}

let pool =
  {
    lock = Mutex.create ();
    work = Condition.create ();
    settled = Condition.create ();
    queue = Queue.create ();
    workers = 0;
    handles = [];
    shutdown = false;
  }

(* Leave headroom under the runtime's ~128-domain limit: callers may nest
   maps, and the main domain plus any library domains also count. *)
let max_workers = 120

let override = ref None

let set_jobs n = override := Some (max 1 n)

let jobs () =
  match !override with
  | Some n -> n
  | None -> (
      match Sys.getenv_opt "NAB_JOBS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n >= 1 -> n
          | Some _ | None -> Domain.recommended_domain_count ())
      | None -> Domain.recommended_domain_count ())

let rec worker_loop () =
  Mutex.lock pool.lock;
  while Queue.is_empty pool.queue && not pool.shutdown do
    Condition.wait pool.work pool.lock
  done;
  match Queue.take_opt pool.queue with
  | None ->
      (* shutdown with an empty queue *)
      Mutex.unlock pool.lock
  | Some (_, task) ->
      Mutex.unlock pool.lock;
      task ();
      worker_loop ()

let stop_workers () =
  Mutex.lock pool.lock;
  pool.shutdown <- true;
  Condition.broadcast pool.work;
  let hs = pool.handles in
  pool.handles <- [];
  Mutex.unlock pool.lock;
  List.iter Domain.join hs

let exit_hook_registered = ref false

(* Grow the pool to [target] workers (never shrinks; the domains are
   reused for the rest of the process). *)
let ensure_workers target =
  let target = min target max_workers in
  Mutex.lock pool.lock;
  let missing = max 0 (target - pool.workers) in
  pool.workers <- pool.workers + missing;
  let register = missing > 0 && not !exit_hook_registered in
  if register then exit_hook_registered := true;
  Mutex.unlock pool.lock;
  (* The runtime only shuts down cleanly once every domain has terminated:
     wake the (by then idle) workers and join them when the process exits. *)
  if register then at_exit stop_workers;
  for _ = 1 to missing do
    let d = Domain.spawn worker_loop in
    Mutex.lock pool.lock;
    pool.handles <- d :: pool.handles;
    Mutex.unlock pool.lock
  done

let run_batch n task_of =
  let b = { remaining = n; failure = None } in
  let task i () =
    (match task_of i with
    | () -> ()
    | exception e ->
        Mutex.lock pool.lock;
        (match b.failure with
        | Some (j, _) when j <= i -> ()
        | Some _ | None -> b.failure <- Some (i, e));
        Mutex.unlock pool.lock);
    Mutex.lock pool.lock;
    b.remaining <- b.remaining - 1;
    if b.remaining = 0 then Condition.broadcast pool.settled;
    Mutex.unlock pool.lock
  in
  Mutex.lock pool.lock;
  for i = 0 to n - 1 do
    Queue.add (b, task i) pool.queue
  done;
  Condition.broadcast pool.work;
  (* Help-first wait: run queued tasks of THIS batch until it settles (see
     the header comment for why stealing other batches' tasks deadlocks);
     block when none of ours are queued. Skipped tasks are rotated to the
     back, which is fine because results are keyed by index, not order. *)
  let take_own () =
    let rec find n =
      if n = 0 then None
      else
        match Queue.take_opt pool.queue with
        | None -> None
        | Some ((b', t) as item) ->
            if b' == b then Some t
            else begin
              Queue.add item pool.queue;
              find (n - 1)
            end
    in
    find (Queue.length pool.queue)
  in
  while b.remaining > 0 do
    match take_own () with
    | Some t ->
        Mutex.unlock pool.lock;
        t ();
        Mutex.lock pool.lock
    | None -> if b.remaining > 0 then Condition.wait pool.settled pool.lock
  done;
  Mutex.unlock pool.lock;
  match b.failure with Some (_, e) -> raise e | None -> ()

let mapi ?jobs:j f xs =
  let j = match j with Some j -> max 1 j | None -> jobs () in
  match xs with
  | [] -> []
  | [ x ] -> [ f 0 x ]
  | _ when j <= 1 -> List.mapi f xs
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let results = Array.make n None in
      ensure_workers (min j n - 1);
      run_batch n (fun i -> results.(i) <- Some (f i arr.(i)));
      Array.to_list
        (Array.map (function Some v -> v | None -> assert false) results)

let map ?jobs f xs = mapi ?jobs (fun _ x -> f x) xs
