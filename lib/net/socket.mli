(** Real-network socket backend: one OS process per node.

    The third {!Transport.TRANSPORT} implementation. Where {!Sim} and
    {!Async_sim} move messages inside one process, this backend runs every
    vertex of the digraph as its own event-driven OS process and moves the
    protocol's bytes through real stream sockets — Unix-domain by default,
    TCP loopback on request. The coordinator (this process) keeps the
    round-structured interface the protocol layers speak and drives a
    {!Sim} as its prediction: each round runs on the simulator first, the
    fleet then moves the same sends over real links, and every node's
    inbox must equal the simulator's. All accounting is the
    simulator's, so a zero-fault run over the socket backend produces the
    same run report, delivery trace and observability stream as {!Sim} by
    construction; [bench/socket.exe --check] and [test/test_socket.ml]
    gate it.

    {2 Process model}

    Nodes are fresh instances of [Sys.executable_name] started with
    [Unix.create_process_env] (posix_spawn — no fork of the OCaml
    runtime, so fleets can be created from any domain, also while a
    {!Nab_util.Pool} is running): the spawned binary recognises itself as
    a node via the [NAB_SOCKET_NODE] environment variable. {b Every binary
    that creates socket transports must therefore call}
    {!exec_node_if_requested} {b first thing in [main]} — it is a no-op in
    the coordinator and never returns in a node. {!create} refuses to run
    in a process that did not, because spawning a binary that never
    checks the hook would re-run that binary's [main] once per node.
    Every coordinator fd is close-on-exec, so a node inherits only stdio.

    {2 Fleet lifecycle}

    A {e fleet} — the node processes and their control channels — outlives
    the handle that spawned it. A handle [t] is a {e lease} on a fleet:
    {!create} leases a parked, healthy fleet of the same mode and graph
    from a process-wide pool (safe from any domain) and spawns one only
    when none is parked; {!close} ends the lease and parks the fleet
    again. Each lease gets its own simulator, so accounting, traces and
    run reports are per lease and identical to a freshly spawned
    fleet's. A fleet whose lease failed, or ended mid-round (a transport
    fault or a raising outbox closure), is stopped and reaped, never
    parked; so is a parked fleet found dead at lease time (it is replaced
    by a fresh spawn). The pool holds at most one fleet per (mode, graph)
    and four in all, stopping the oldest first; {!shutdown} stops every
    parked fleet, and an [at_exit] hook stops every fleet still running.

    {2 Wire format}

    Every frame on every socket is ["NB"] magic, a version byte, a kind
    byte and a 32-bit big-endian body length (capped at 16 MiB), followed
    by a {!Wire.Codec} body; packets travel as {!Packet.encode} bytes.
    Malformed or oversized {e framing} poisons the connection (a byte
    stream cannot be resynchronised); a frame body that fails to decode on
    a data link — the Byzantine case — is counted and dropped, never
    fatal. Messages are delivered node-to-node over per-pair links (the
    lower vertex id dials); the coordinator checks each round's node
    reports against the synchronous prediction and raises {!Socket_error}
    on any divergence, so a faulty wire exchange can never silently
    corrupt a run. *)

exception Socket_error of string
(** Transport-level failure: a node process died, a handshake or round
    timed out, control-channel framing broke, or the wire exchange
    diverged from the synchronous prediction. Distinct from protocol
    outcomes — a raising transport never produces a wrong inbox. *)

type mode = [ `Unix | `Tcp ]
(** Socket family: Unix-domain sockets in a private temporary directory
    (default), or TCP on 127.0.0.1 with ephemeral ports. *)

type t
(** A lease on a fleet (the node processes and their control channels),
    with the simulator that predicts and accounts every round of this
    lease. *)

val exec_node_if_requested : unit -> unit
(** Call first in the [main] of every binary that may create socket
    transports. In a coordinator process this installs the node hook
    and returns; in a process launched as a node (the [NAB_SOCKET_NODE]
    environment variable is set) it runs the node event loop and exits —
    it never returns. *)

val create :
  ?mode:mode ->
  ?obs:Nab_obs.ctx ->
  ?keep_events:bool ->
  Nab_graph.Digraph.t ->
  t
(** Lease a fleet for the graph: a parked one of the same [mode] and graph
    if its control channels are healthy, otherwise a new one — one node
    process per vertex, the per-pair data links wired, and the handshake
    run to the ready barrier. A 60 s timeout bounds the handshake and every
    subsequent round: a fleet that stops answering fails instead of
    hanging. Raises {!Socket_error} on any setup
    failure (after reaping whatever it had spawned), and when the calling
    process never ran {!exec_node_if_requested}. *)

val close : t -> unit
(** End the lease. On a live lease every node reports its traffic
    ({!node_stats}) and the fleet is parked for the next {!create} on the
    same graph; its processes keep running. On a failed lease, or when the
    release handshake fails, the fleet is stopped: control channels
    closed, [waitpid] with a grace period and SIGKILL for stragglers, the
    socket directory removed — no node process of that fleet survives.
    Idempotent. On a closed or failed lease, [round], [pending_count] and
    [drain] raise {!Socket_error}; the accessors ([timing], [link_bits],
    [events_of_phase], ...) keep reporting the run. *)

val shutdown : unit -> unit
(** Stop and reap every parked fleet. Leased fleets are untouched. Safe to
    call at any time; the next {!create} spawns afresh. *)

val transport : t -> Transport.t
(** Pack the fleet behind the backend-neutral boundary. The packed
    [Transport.close] is {!close}. *)

val factory : ?mode:mode -> unit -> Transport.factory
(** Factory for session drivers: every broadcast instance gets its own
    lease over the instance graph (sessions close it per instance), so
    serial instances on one graph reuse one fleet. *)

type stats = {
  frames_sent : int;
  frames_received : int;
  bytes_sent : int;
  bytes_received : int;
  decode_errors : int;  (** data-link frames that failed to decode *)
}
(** A node's own traffic counters, summed over its control channel and
    data links — real bytes on real sockets, framing included (distinct
    from the capacity model's {!Transport.link_bits}). *)

val node_stats : t -> (int * stats) list
(** Per-vertex counters of this lease alone, reported in the release
    handshake at {!close}; ascending vertex order. A fleet's first lease
    includes its set-up handshake; later leases count only their own
    rounds. Empty before {!close} and on a failed lease; best-effort
    when the release handshake itself fails. *)

val pids : t -> int list
(** The node process ids of the leased fleet, in vertex order — for
    lifecycle tests (orphan checks, reuse) and debugging. *)

val available : ?mode:mode -> unit -> (unit, string) result
(** Can this process run socket fleets at all? Checks the
    {!exec_node_if_requested} hook and probes the exact primitives
    {!create} relies on: spawning this binary as a node process (which
    exits at once) and reaping it, and a bound listener of the selected
    [mode]. Test and bench tiers skip gracefully on [Error] — when this
    returns [Ok], socket failures are real failures. *)
