(* Real-network transport: every node of the digraph is its own OS
   process, exchanging framed wire-format bytes over Unix-domain (or TCP
   loopback) stream sockets; the coordinator process keeps the protocol
   layers' round interface and drives a [Sim] whose accounting and inboxes
   are the run's, so a zero-fault socket run produces the same run report
   as [Sim] while the inbox data travels through real sockets.

   Design notes, in the order they bit:

   - OCaml 5's [Unix.fork] raises once a second domain exists, and the
     campaign driver runs scenarios on pool domains. Node processes are
     therefore started with [Unix.create_process_env] (posix_spawn, no
     fork of the OCaml runtime) as fresh instances of
     [Sys.executable_name]. The spawned binary must announce itself by
     calling {!exec_node_if_requested} first thing in [main] — and
     [create] refuses to run in a process that never installed that hook,
     because spawning a binary that does not check the hook would re-run
     that binary's [main] per node (a process bomb for a driver like
     campaign). A spawned child inherits every fd not marked
     close-on-exec, so every coordinator fd is opened close-on-exec:
     otherwise a node of one fleet would hold the control channels of
     another and hide their EOF from that fleet's nodes.

   - A fleet outlives the instance that spawned it. [close] ends a lease:
     the nodes report the lease's traffic and go idle, and the fleet is
     parked in a small process-wide pool keyed by (mode, graph), from
     which the next [create] on the same graph leases it instead of
     spawning. Node state is clean between rounds by construction, so
     the only per-lease work is a fresh [Sim] and a Release handshake.
     A fleet that failed, or whose lease ended mid-round, is never
     parked.

   - OCaml's [Unix] has no fd passing, so links are established by
     address: the coordinator listens on a control address, every node
     listens on its own data address and reports it in its Hello; the
     coordinator's Init tells each node whom to dial (the lower node id
     of every linked pair dials the higher).

   - Peers write to each other concurrently, so every fd is nonblocking
     with an explicit output queue drained under [select] — two nodes
     blocked in [write] at both ends of a full socket pair would deadlock
     an entire round. SIGPIPE is ignored (writes to a crashed peer must
     surface as EPIPE, not kill the process).

   - A round is a barrier protocol: the coordinator sends each node an
     Outbox frame; nodes frame each message onto the peer link, terminate
     the round with an Eor marker per out-link, collect Msg frames until
     every in-link's Eor arrives, and report the decoded arrivals back in
     an Inbox frame. Per-link round counters keep a fast peer's round
     r+1 traffic out of round r. *)

open Nab_graph
module Codec = Wire.Codec

exception Socket_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Socket_error s)) fmt

type mode = [ `Unix | `Tcp ]

(* --------------------------- wire framing ----------------------------

   Every frame, on every socket: 2 magic bytes "NB", 1 version byte,
   1 kind byte, 4 length bytes (big endian), then the body. A frame whose
   magic/version is wrong or whose declared length exceeds [max_frame]
   poisons the connection (there is no way to resynchronise a corrupt
   byte stream); a frame whose BODY fails to decode is dropped and
   counted — that is the Byzantine case the codec is built for. *)

let magic0 = 'N'
let magic1 = 'B'
let version = 1
let header_len = 8
let max_frame = 1 lsl 24 (* 16 MiB: no peer can make us buffer more *)

(* Frame kinds. Control channel (coordinator <-> node): *)
let k_hello = 1
let k_init = 2
let k_ready = 3
let k_outbox = 4
let k_inbox = 5
let k_stats = 6
let k_release = 7

(* Data links (node <-> node): *)
let k_peer_hello = 8
let k_msg = 9
let k_eor = 10

(* ------------------------- buffered connections ----------------------- *)

type nbuf = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

let nbuf_make n = { buf = Bytes.create n; start = 0; len = 0 }

let nbuf_compact b =
  if b.start > 0 then begin
    Bytes.blit b.buf b.start b.buf 0 b.len;
    b.start <- 0
  end

let nbuf_reserve b k =
  if Bytes.length b.buf - b.start - b.len < k then begin
    nbuf_compact b;
    if Bytes.length b.buf - b.len < k then begin
      let cap = max (2 * Bytes.length b.buf) (b.len + k) in
      let nb = Bytes.create cap in
      Bytes.blit b.buf 0 nb 0 b.len;
      b.buf <- nb
    end
  end

let nbuf_drop b k =
  b.start <- b.start + k;
  b.len <- b.len - k;
  if b.len = 0 then b.start <- 0

type conn = {
  fd : Unix.file_descr;
  rx : nbuf;
  tx : nbuf;
  frames : (int * string) Queue.t; (* parsed (kind, body), arrival order *)
  mutable alive : bool;
  mutable fd_open : bool; (* [alive] clears on EOF; the fd stays ours *)
  mutable frames_in : int;
  mutable frames_out : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

let conn_of_fd ~cap fd =
  {
    fd;
    rx = nbuf_make cap;
    tx = nbuf_make cap;
    frames = Queue.create ();
    alive = true;
    fd_open = true;
    frames_in = 0;
    frames_out = 0;
    bytes_in = 0;
    bytes_out = 0;
  }

let conn_make fd =
  Unix.set_nonblock fd;
  conn_of_fd ~cap:2048 fd

(* A slot that never held a connection; closing it is a no-op. *)
let conn_none () = { (conn_of_fd ~cap:1 Unix.stdin) with alive = false; fd_open = false }

(* Idempotent: a second close must never hit an fd number that another
   domain has since reused. *)
let conn_close c =
  c.alive <- false;
  if c.fd_open then begin
    c.fd_open <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let write_header b o kind n =
  Bytes.set b o magic0;
  Bytes.set b (o + 1) magic1;
  Bytes.set b (o + 2) (Char.chr version);
  Bytes.set b (o + 3) (Char.chr kind);
  Bytes.set b (o + 4) (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b (o + 5) (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b (o + 6) (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b (o + 7) (Char.chr (n land 0xff))

let queue_frame c kind body =
  let n = String.length body in
  if n > max_frame then fail "Socket: refusing to send oversized frame (%d bytes)" n;
  nbuf_reserve c.tx (header_len + n);
  let o = c.tx.start + c.tx.len in
  write_header c.tx.buf o kind n;
  Bytes.blit_string body 0 c.tx.buf (o + header_len) n;
  c.tx.len <- c.tx.len + header_len + n;
  c.frames_out <- c.frames_out + 1;
  c.bytes_out <- c.bytes_out + header_len + n

(* Drain as much of the output queue as the socket accepts right now. *)
let conn_flush c =
  let progress = ref true in
  while c.alive && c.tx.len > 0 && !progress do
    match Unix.single_write c.fd c.tx.buf c.tx.start c.tx.len with
    | 0 -> progress := false
    | n -> nbuf_drop c.tx n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        progress := false
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        c.alive <- false
  done

(* Pull bytes off the socket; false = the peer closed (or reset). Frame
   extraction happens separately so header corruption is detected even on
   a connection that then goes quiet. The reservation per read is small:
   a buffer grows (doubling) only while reads keep filling it, so an idle
   control channel keeps a small buffer. *)
let conn_read c =
  let rec go () =
    nbuf_reserve c.rx 1024;
    let room = Bytes.length c.rx.buf - c.rx.start - c.rx.len in
    match Unix.read c.fd c.rx.buf (c.rx.start + c.rx.len) room with
    | 0 -> c.alive <- false
    | n ->
        c.rx.len <- c.rx.len + n;
        c.bytes_in <- c.bytes_in + n;
        if n = room then go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.alive <- false
  in
  go ()

(* Split complete frames out of the receive buffer. A malformed HEADER is
   unrecoverable: returns an error and kills the connection. *)
let conn_extract c =
  let err = ref None in
  let continue = ref true in
  while !continue && !err = None && c.rx.len >= header_len do
    let b = c.rx.buf and o = c.rx.start in
    if Bytes.get b o <> magic0 || Bytes.get b (o + 1) <> magic1 then
      err := Some "bad frame magic"
    else if Char.code (Bytes.get b (o + 2)) <> version then
      err := Some "bad frame version"
    else begin
      let kind = Char.code (Bytes.get b (o + 3)) in
      let len =
        (Char.code (Bytes.get b (o + 4)) lsl 24)
        lor (Char.code (Bytes.get b (o + 5)) lsl 16)
        lor (Char.code (Bytes.get b (o + 6)) lsl 8)
        lor Char.code (Bytes.get b (o + 7))
      in
      if len > max_frame then err := Some "oversized frame"
      else if c.rx.len < header_len + len then continue := false
      else begin
        let body = Bytes.sub_string b (o + header_len) len in
        nbuf_drop c.rx (header_len + len);
        c.frames_in <- c.frames_in + 1;
        Queue.add (kind, body) c.frames
      end
    end
  done;
  match !err with
  | Some e ->
      c.alive <- false;
      Error e
  | None -> Ok ()

(* ------------------------------ addresses ----------------------------- *)

let addr_to_string = function
  | Unix.ADDR_UNIX path -> "unix:" ^ path
  | Unix.ADDR_INET (host, port) ->
      Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr host) port

let addr_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      Unix.ADDR_UNIX (String.sub s (i + 1) (String.length s - i - 1))
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | Some j ->
          Unix.ADDR_INET
            ( Unix.inet_addr_of_string (String.sub rest 0 j),
              int_of_string (String.sub rest (j + 1) (String.length rest - j - 1))
            )
      | None -> fail "Socket: bad tcp address %S" s)
  | _ -> fail "Socket: bad address %S" s

let socket_for = function
  | Unix.ADDR_UNIX _ -> Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  | Unix.ADDR_INET _ ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      fd

let ignore_sigpipe =
  lazy
    (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
    | _ -> ()
    | exception Invalid_argument _ -> () (* no SIGPIPE on this platform *))

let monotonic () = Unix.gettimeofday ()

(* The hang guard: a fleet's handshake and each of its rounds must finish
   within this many seconds, or the lease fails with [Socket_error]. *)
let timeout = 60.0

(* ---------------------------- worker hook ----------------------------- *)

let env_var = "NAB_SOCKET_NODE"
let hook_installed = Atomic.make false

(* ------------------------- control frame bodies ------------------------ *)

let body_hello ~id ~token ~data_addr =
  let buf = Buffer.create 64 in
  Codec.add_uvarint buf id;
  Codec.add_string buf token;
  Codec.add_string buf data_addr;
  Buffer.contents buf

let parse_hello body =
  let r = { Codec.src = body; pos = 0 } in
  let id = Codec.uvarint r in
  let token = Codec.string_ r in
  let data_addr = Codec.string_ r in
  (id, token, data_addr)

(* [List.init]'s application order is unspecified; the reader mutates, so
   decode counted sequences with an explicit left-to-right loop. *)
let read_list n f =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f () :: acc) in
  go n []

type init = {
  i_out : int list; (* ids this node sends to (existing out-links) *)
  i_in : int list; (* ids this node receives from, ascending *)
  i_dial : (int * string) list; (* (peer id, address) this node dials *)
  i_accept : int; (* peer links this node accepts *)
}

let body_init i =
  let buf = Buffer.create 128 in
  Codec.add_uvarint buf (List.length i.i_out);
  List.iter (Codec.add_varint buf) i.i_out;
  Codec.add_uvarint buf (List.length i.i_in);
  List.iter (Codec.add_varint buf) i.i_in;
  Codec.add_uvarint buf (List.length i.i_dial);
  List.iter
    (fun (id, addr) ->
      Codec.add_varint buf id;
      Codec.add_string buf addr)
    i.i_dial;
  Codec.add_uvarint buf i.i_accept;
  Buffer.contents buf

let parse_init body =
  let r = { Codec.src = body; pos = 0 } in
  let n = Codec.count r ~per:1 in
  let i_out = read_list n (fun () -> Codec.varint r) in
  let n = Codec.count r ~per:1 in
  let i_in = read_list n (fun () -> Codec.varint r) in
  let n = Codec.count r ~per:2 in
  let i_dial =
    read_list n (fun () ->
        let id = Codec.varint r in
        let addr = Codec.string_ r in
        (id, addr))
  in
  let i_accept = Codec.uvarint r in
  { i_out; i_in; i_dial; i_accept }

let body_outbox ~round sends =
  let buf = Buffer.create 256 in
  Codec.add_uvarint buf round;
  Codec.add_uvarint buf (List.length sends);
  List.iter
    (fun (dst, bytes) ->
      Codec.add_varint buf dst;
      Codec.add_string buf bytes)
    sends;
  Buffer.contents buf

let parse_outbox body =
  let r = { Codec.src = body; pos = 0 } in
  let round = Codec.uvarint r in
  let n = Codec.count r ~per:2 in
  let sends =
    read_list n (fun () ->
        let dst = Codec.varint r in
        let bytes = Codec.string_ r in
        (dst, bytes))
  in
  (round, sends)

(* Inbox and Outbox share a body shape: (peer id, packet bytes) pairs. *)
let body_inbox = body_outbox
let parse_inbox = parse_outbox

type stats = {
  frames_sent : int;
  frames_received : int;
  bytes_sent : int;
  bytes_received : int;
  decode_errors : int;
}

let body_stats s =
  let buf = Buffer.create 32 in
  Codec.add_uvarint buf s.frames_sent;
  Codec.add_uvarint buf s.frames_received;
  Codec.add_uvarint buf s.bytes_sent;
  Codec.add_uvarint buf s.bytes_received;
  Codec.add_uvarint buf s.decode_errors;
  Buffer.contents buf

let no_stats =
  { frames_sent = 0; frames_received = 0; bytes_sent = 0; bytes_received = 0; decode_errors = 0 }

let parse_stats body =
  let r = { Codec.src = body; pos = 0 } in
  let frames_sent = Codec.uvarint r in
  let frames_received = Codec.uvarint r in
  let bytes_sent = Codec.uvarint r in
  let bytes_received = Codec.uvarint r in
  let decode_errors = Codec.uvarint r in
  { frames_sent; frames_received; bytes_sent; bytes_received; decode_errors }

let body_peer_hello ~token ~id =
  let buf = Buffer.create 32 in
  Codec.add_string buf token;
  Codec.add_uvarint buf id;
  Buffer.contents buf

let parse_peer_hello body =
  let r = { Codec.src = body; pos = 0 } in
  let token = Codec.string_ r in
  let id = Codec.uvarint r in
  (token, id)

let body_eor round =
  let buf = Buffer.create 8 in
  Codec.add_uvarint buf round;
  Buffer.contents buf

let parse_eor body =
  let r = { Codec.src = body; pos = 0 } in
  Codec.uvarint r

(* ------------------------------ node side -----------------------------

   The spawned process. Everything below runs in the child, which owns
   nothing of the coordinator's state; it exits instead of raising. *)

type link = {
  peer : int;
  c : conn;
  mutable recv_round : int; (* round its incoming Msg frames belong to *)
  mutable cur : Packet.t list; (* that round's arrivals, reversed *)
}

type node = {
  self : int;
  ctrl : conn;
  links : (int * link) list; (* by peer id, ascending *)
  out_ids : int list;
  in_ids : int list; (* ascending *)
  (* completed (round, src) -> arrivals in send order; consumed by Inbox *)
  done_rounds : (int * int, Packet.t list) Hashtbl.t;
  mutable outbox_round : int; (* last round whose Outbox was processed *)
  mutable reported_round : int; (* last round whose Inbox was sent *)
  mutable decode_errors : int;
  mutable baseline : stats; (* totals when the last lease was released *)
}

let node_link n peer = List.assoc_opt peer n.links

(* Round r is complete once its Outbox was processed and every in-link
   has moved past it; ship the Inbox and free the stored arrivals. *)
let node_try_complete n =
  let r = n.reported_round + 1 in
  if
    n.outbox_round >= r
    && List.for_all
         (fun src ->
           match node_link n src with
           | Some l -> l.recv_round > r
           | None -> true (* in-link without a live connection: crashed peer *))
         n.in_ids
  then begin
    let sends =
      List.concat_map
        (fun src ->
          match Hashtbl.find_opt n.done_rounds (r, src) with
          | None -> []
          | Some arrivals ->
              Hashtbl.remove n.done_rounds (r, src);
              (* [arrivals] is the consed Msg stream, i.e. reversed send
                 order — exactly the canonical within-group order the
                 synchronous simulator produces, so report it as-is. *)
              List.map (fun p -> (src, Packet.encode p)) arrivals)
        n.in_ids
    in
    queue_frame n.ctrl k_inbox (body_inbox ~round:r sends);
    n.reported_round <- r
  end

(* This node's counters since it started: control channel plus links. *)
let node_totals n =
  List.fold_left
    (fun s c ->
      {
        s with
        frames_sent = s.frames_sent + c.frames_out;
        frames_received = s.frames_received + c.frames_in;
        bytes_sent = s.bytes_sent + c.bytes_out;
        bytes_received = s.bytes_received + c.bytes_in;
      })
    { no_stats with decode_errors = n.decode_errors }
    (n.ctrl :: List.map (fun (_, l) -> l.c) n.links)

let node_handle_ctrl n (kind, body) =
  if kind = k_outbox then begin
    match parse_outbox body with
    | round, sends ->
        if round <> n.outbox_round + 1 then exit 4;
        (* Frame every message onto its link, then close the round with an
           Eor on every out-link — peers use it as the round barrier. *)
        List.iter
          (fun (dst, bytes) ->
            match node_link n dst with
            | Some l when l.c.alive -> queue_frame l.c k_msg bytes
            | _ -> () (* link to a crashed peer: the bits fall on the floor *))
          sends;
        List.iter
          (fun dst ->
            match node_link n dst with
            | Some l when l.c.alive -> queue_frame l.c k_eor (body_eor round)
            | _ -> ())
          n.out_ids;
        n.outbox_round <- round;
        node_try_complete n
    | exception Codec.Bad _ -> exit 4 (* corrupt coordinator: bail out *)
  end
  else if kind = k_release then begin
    (* The lease is over. Every round it ran has completed everywhere (the
       coordinator saw every Inbox), so no arrivals are pending: restart
       the round numbering for the next lease, report this lease's traffic
       (everything since the last Release, this Release included, the
       Stats frame itself excluded) and stay up. *)
    let settled src =
      match node_link n src with
      | Some l -> l.cur = [] && l.recv_round = n.reported_round + 1
      | None -> true
    in
    if
      n.outbox_round <> n.reported_round
      || Hashtbl.length n.done_rounds > 0
      || not (List.for_all settled n.in_ids)
    then exit 4;
    n.outbox_round <- 0;
    n.reported_round <- 0;
    List.iter (fun (_, l) -> l.recv_round <- 1) n.links;
    let now = node_totals n and b = n.baseline in
    queue_frame n.ctrl k_stats
      (body_stats
         {
           frames_sent = now.frames_sent - b.frames_sent;
           frames_received = now.frames_received - b.frames_received;
           bytes_sent = now.bytes_sent - b.bytes_sent;
           bytes_received = now.bytes_received - b.bytes_received;
           decode_errors = now.decode_errors - b.decode_errors;
         });
    n.baseline <- node_totals n
  end
  else exit 4

let node_handle_link n l (kind, body) =
  if kind = k_msg then
    match Packet.decode body with
    | Ok p -> l.cur <- p :: l.cur
    | Error _ ->
        (* The Byzantine case: arbitrary bytes on a data link are counted
           and dropped, never fatal. *)
        n.decode_errors <- n.decode_errors + 1
  else if kind = k_eor then begin
    (match parse_eor body with
    | r -> if r <> l.recv_round then n.decode_errors <- n.decode_errors + 1
    | exception Codec.Bad _ -> n.decode_errors <- n.decode_errors + 1);
    Hashtbl.replace n.done_rounds (l.recv_round, l.peer) l.cur;
    l.cur <- [];
    l.recv_round <- l.recv_round + 1;
    node_try_complete n
  end
  else n.decode_errors <- n.decode_errors + 1 (* unexpected kind: drop *)

let node_loop n =
  let conns () = n.ctrl :: List.map (fun (_, l) -> l.c) n.links in
  let rec go () =
    List.iter conn_flush (conns ());
    let rset = List.filter_map (fun c -> if c.alive then Some c.fd else None) (conns ()) in
    let wset =
      List.filter_map
        (fun c -> if c.alive && c.tx.len > 0 then Some c.fd else None)
        (conns ())
    in
    if not n.ctrl.alive then exit 5; (* coordinator gone: never linger *)
    (match Unix.select rset wset [] (-1.0) with
    | rs, _, _ ->
        List.iter
          (fun c ->
            if List.memq c.fd rs then begin
              conn_read c;
              match conn_extract c with
              | Ok () -> ()
              | Error _ ->
                  (* Corrupt framing: the stream cannot be resynchronised.
                     On a data link that kills the link; on the control
                     channel it kills the node. *)
                  if c == n.ctrl then exit 4
                  else n.decode_errors <- n.decode_errors + 1
            end)
          (conns ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* Dispatch parsed frames (handlers may queue output). *)
    while not (Queue.is_empty n.ctrl.frames) do
      node_handle_ctrl n (Queue.pop n.ctrl.frames)
    done;
    List.iter
      (fun (_, l) ->
        while not (Queue.is_empty l.c.frames) do
          node_handle_link n l (Queue.pop l.c.frames)
        done)
      n.links;
    (* A peer that died mid-round can never deliver its Eor: the protocol
       cannot complete, so bail out loudly (the coordinator turns the
       control-channel EOF into a transport error immediately instead of
       waiting for its round timeout). Between rounds a dead link is left
       alone — during shutdown peers exit at their own pace. *)
    if
      n.outbox_round > n.reported_round
      && List.exists (fun (_, l) -> not l.c.alive) n.links
    then exit 5;
    go ()
  in
  go ()

(* Blocking single-frame read used only during the node handshake. *)
let read_frame_blocking fd ~deadline =
  let c = conn_make fd in
  Unix.clear_nonblock fd;
  let rec go () =
    match conn_extract c with
    | Error e -> fail "Socket node: handshake framing: %s" e
    | Ok () ->
        if not (Queue.is_empty c.frames) then Queue.pop c.frames
        else if monotonic () > deadline then fail "Socket node: handshake timeout"
        else begin
          (match Unix.select [ fd ] [] [] 1.0 with
          | [ _ ], _, _ -> conn_read c
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          if not c.alive then fail "Socket node: peer closed during handshake";
          go ()
        end
  in
  Unix.set_nonblock fd;
  let r = go () in
  (* Hand surplus bytes back? The handshake protocol sends nothing after
     its single frame until the main loop starts, so the buffer is empty
     here by construction. *)
  r

let write_all_blocking fd s =
  Unix.clear_nonblock fd;
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done;
  Unix.set_nonblock fd

let frame_string kind body =
  let n = String.length body in
  let b = Bytes.create (header_len + n) in
  write_header b 0 kind n;
  Bytes.blit_string body 0 b header_len n;
  Bytes.unsafe_to_string b

let node_main spec =
  Lazy.force ignore_sigpipe;
  let ctrl_addr, self, token =
    match String.split_on_char ';' spec with
    | [ addr; id; token ] -> (addr_of_string addr, int_of_string id, token)
    | _ -> fail "Socket node: bad %s spec" env_var
  in
  let deadline = monotonic () +. 60.0 in
  (* Our own data listener; Unix mode derives the path from the control
     socket's directory, TCP takes an ephemeral loopback port. *)
  let data_addr =
    match ctrl_addr with
    | Unix.ADDR_UNIX path ->
        Unix.ADDR_UNIX (Filename.concat (Filename.dirname path) (Printf.sprintf "node%d" self))
    | Unix.ADDR_INET _ -> Unix.ADDR_INET (Unix.inet_addr_loopback, 0)
  in
  let listener = socket_for data_addr in
  Unix.bind listener data_addr;
  Unix.listen listener 64;
  let data_addr = Unix.getsockname listener in
  (* Control channel. The coordinator listens before spawning, so a plain
     connect is race-free. *)
  let ctrl_fd = socket_for ctrl_addr in
  Unix.connect ctrl_fd ctrl_addr;
  write_all_blocking ctrl_fd
    (frame_string k_hello
       (body_hello ~id:self ~token ~data_addr:(addr_to_string data_addr)));
  let init =
    match read_frame_blocking ctrl_fd ~deadline with
    | k, body when k = k_init -> parse_init body
    | _ -> fail "Socket node: expected Init"
  in
  (* Dial the higher-id peers; accept from the lower-id ones. Dialing
     never deadlocks against other nodes' dials: connect(2) completes
     into the listener's backlog without the peer calling accept. *)
  let dialed =
    List.map
      (fun (peer, addr) ->
        let a = addr_of_string addr in
        let fd = socket_for a in
        Unix.connect fd a;
        write_all_blocking fd
          (frame_string k_peer_hello (body_peer_hello ~token ~id:self));
        (peer, fd))
      init.i_dial
  in
  let accepted = ref [] in
  for _ = 1 to init.i_accept do
    let fd, _ = Unix.accept ~cloexec:true listener in
    (* Not inherited from the listener on every platform; meaningless (and
       an error) on Unix-domain sockets. *)
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    match read_frame_blocking fd ~deadline with
    | k, body when k = k_peer_hello ->
        let tok, peer = parse_peer_hello body in
        if tok <> token then fail "Socket node: peer token mismatch";
        accepted := (peer, fd) :: !accepted
    | _ -> fail "Socket node: expected PeerHello"
  done;
  Unix.close listener;
  (match data_addr with
  | Unix.ADDR_UNIX p -> ( try Sys.remove p with Sys_error _ -> ())
  | _ -> ());
  let links =
    List.sort compare
      (List.map
         (fun (peer, fd) ->
           (peer, { peer; c = conn_make fd; recv_round = 1; cur = [] }))
         (dialed @ !accepted))
  in
  let n =
    {
      self;
      ctrl = conn_make ctrl_fd;
      links;
      out_ids = init.i_out;
      in_ids = init.i_in;
      done_rounds = Hashtbl.create 16;
      outbox_round = 0;
      reported_round = 0;
      decode_errors = 0;
      baseline = no_stats;
    }
  in
  queue_frame n.ctrl k_ready "";
  node_loop n

let exec_node_if_requested () =
  Atomic.set hook_installed true;
  match Sys.getenv_opt env_var with
  | None -> ()
  | Some "probe" -> exit 0 (* spawned by [available] *)
  | Some spec -> (
      try node_main spec with
      | Socket_error e ->
          prerr_endline ("nab socket node: " ^ e);
          exit 3
      | e ->
          prerr_endline ("nab socket node: " ^ Printexc.to_string e);
          exit 3)

(* --------------------------- coordinator ------------------------------ *)

(* A fleet: one node process and one control channel per vertex. It
   outlives the leases that use it — [close] parks it for the next
   [create] on the same (mode, graph). *)
type fleet = {
  id : int;
  key : string; (* mode and graph fingerprint *)
  pids : int array; (* node process per dense index; -1 = not spawned *)
  conns : conn array; (* control channel per dense index *)
  dir : string option; (* Unix-mode socket directory, removed on stop *)
}

(* A lease: one instance's use of a fleet. The coordinator drives a
   synchronous simulator as its prediction: the simulator's index,
   accounting and inboxes are the lease's, and the wire exchange must
   reproduce the inboxes exactly. *)
type t = {
  sim : Packet.t Sim.t;
  fleet : fleet;
  mutable state : [ `Live | `Failed of string | `Closed ];
  mutable node_stats : (int * stats) list;
}

(* Process-wide fleet state, under one lock: every fleet not stopped yet
   (leased or parked), so that neither an abandoned handle nor a parked
   fleet leaks node processes past exit; and the parked fleets, oldest
   first. *)
let lock = Mutex.create ()
let locked f = Mutex.protect lock f
let fleets : (int, fleet) Hashtbl.t = Hashtbl.create 8
let fleet_ctr = ref 0
let parked : fleet list ref = ref []

(* At most one parked fleet per (mode, graph), and this many in all. *)
let max_parked = 4

(* Close every control channel — a node exits on its channel's EOF —
   give the nodes [grace] seconds to exit, SIGKILL the stragglers, reap
   them all and remove the socket directory. No child of the fleet
   survives. *)
let stop_fleet ~grace f =
  locked (fun () -> Hashtbl.remove fleets f.id);
  Array.iter conn_close f.conns;
  let exited pid =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error _ -> true
  in
  let deadline = monotonic () +. grace in
  let live = ref (List.filter (fun pid -> pid > 0) (Array.to_list f.pids)) in
  while !live <> [] && monotonic () < deadline do
    live := List.filter (fun pid -> not (exited pid)) !live;
    if !live <> [] then Unix.sleepf 0.005
  done;
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  match f.dir with
  | None -> ()
  | Some d -> (
      (try
         Array.iter
           (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
           (Sys.readdir d)
       with Sys_error _ -> ());
      try Unix.rmdir d with Unix.Unix_error _ -> ())

let at_exit_installed = Atomic.make false

let register f =
  locked (fun () -> Hashtbl.replace fleets f.id f);
  if not (Atomic.exchange at_exit_installed true) then
    at_exit (fun () ->
        let all =
          locked (fun () ->
              parked := [];
              let all = Hashtbl.fold (fun _ f acc -> f :: acc) fleets [] in
              Hashtbl.reset fleets;
              all)
        in
        List.iter (stop_fleet ~grace:0.0) all)

let take_parked key =
  locked (fun () ->
      match List.partition (fun f -> f.key = key) !parked with
      | f :: _, rest ->
          parked := rest;
          Some f
      | [], _ -> None)

(* Park [f] as the newest entry; a fleet parked earlier for the same key,
   and the oldest one beyond [max_parked], are stopped. *)
let park f =
  let evicted =
    locked (fun () ->
        let same, rest = List.partition (fun p -> p.key = f.key) !parked in
        match rest @ [ f ] with
        | oldest :: keep when List.length keep >= max_parked ->
            parked := keep;
            oldest :: same
        | keep ->
            parked := keep;
            same)
  in
  List.iter (stop_fleet ~grace:5.0) evicted

let shutdown () =
  let all =
    locked (fun () ->
        let all = !parked in
        parked := [];
        all)
  in
  List.iter (stop_fleet ~grace:5.0) all

(* The coordinator's half of the event loop: flush writes, read control
   frames, until [done_ ()] or the deadline. Any control-channel EOF or
   framing error while we still expect frames is a transport failure. *)
let pump conns ~deadline ~expect_live ~done_ =
  let rec go () =
    if done_ () then ()
    else begin
      Array.iter (fun c -> if c.alive then conn_flush c) conns;
      if done_ () then ()
      else begin
        let now = monotonic () in
        if now > deadline then fail "Socket: timeout waiting for node processes";
        let rset = ref [] and wset = ref [] in
        Array.iter
          (fun c ->
            if c.alive then begin
              rset := c.fd :: !rset;
              if c.tx.len > 0 then wset := c.fd :: !wset
            end)
          conns;
        if !rset = [] then fail "Socket: all node processes gone";
        (match Unix.select !rset !wset [] (Float.min 1.0 (deadline -. now)) with
        | rs, _, _ ->
            Array.iter
              (fun c ->
                if c.alive && List.memq c.fd rs then begin
                  conn_read c;
                  match conn_extract c with
                  | Ok () -> ()
                  | Error e -> fail "Socket: control framing from node: %s" e
                end)
              conns
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        if expect_live then
          Array.iter
            (fun c ->
              if (not c.alive) && Queue.is_empty c.frames then
                fail "Socket: node process died (control channel closed)")
            conns;
        go ()
      end
    end
  in
  go ()

let check_live t =
  match t.state with
  | `Live -> ()
  | `Failed e -> fail "Socket: transport failed earlier: %s" e
  | `Closed -> fail "Socket: transport is closed"

(* Any exception inside a round — a transport fault or an outbox closure
   raising — leaves the fleet mid-round: the lease fails, and [close]
   stops the fleet instead of parking it. *)
let guard t f =
  check_live t;
  try f ()
  with e ->
    t.state <- `Failed (match e with Socket_error m -> m | e -> Printexc.to_string e);
    raise e

(* ------------------------------- create ------------------------------- *)

let random_token () =
  let rng = Random.State.make_self_init () in
  String.init 16 (fun _ -> "0123456789abcdef".[Random.State.int rng 16])

(* Start [Sys.executable_name] as a node: posix_spawn, so it works from
   any domain. The child inherits stdio and nothing else of ours (every
   other coordinator fd is close-on-exec). *)
let spawn_node spec =
  let exe = Sys.executable_name in
  let prefix = env_var ^ "=" in
  let env =
    (prefix ^ spec)
    :: List.filter
         (fun kv -> not (String.starts_with ~prefix kv))
         (Array.to_list (Unix.environment ()))
  in
  Unix.create_process_env exe [| exe |] (Array.of_list env) Unix.stdin Unix.stdout
    Unix.stderr

(* Spawn one node process per vertex, run the Hello/Init handshake, and
   wait for every node to finish its peer wiring. On failure everything
   spawned so far is reaped before the exception propagates. *)
let spawn_fleet ~mode ~key l g =
  let nv = Ledger.nv l in
  let token = random_token () in
  let dir, ctrl_addr =
    match mode with
    | `Unix ->
        let d =
          try Filename.temp_dir "nab-socket" ""
          with Sys_error e -> fail "cannot make a socket directory: %s" e
        in
        (Some d, Unix.ADDR_UNIX (Filename.concat d "ctrl"))
    | `Tcp -> (None, Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
  in
  let f =
    {
      id = locked (fun () -> incr fleet_ctr; !fleet_ctr);
      key;
      pids = Array.make nv (-1);
      conns = Array.init nv (fun _ -> conn_none ());
      dir;
    }
  in
  register f;
  let listener = ref None in
  let close_listener () =
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !listener;
    listener := None
  in
  let anon = ref [] in
  (* conns accepted, Hello pending *)
  try
    let lfd = socket_for ctrl_addr in
    listener := Some lfd;
    Unix.bind lfd ctrl_addr;
    Unix.listen lfd (max 16 nv);
    let ctrl_addr = Unix.getsockname lfd in
    Unix.set_nonblock lfd;
    List.iteri
      (fun i v ->
        f.pids.(i) <-
          spawn_node (Printf.sprintf "%s;%d;%s" (addr_to_string ctrl_addr) v token))
      (Digraph.vertices g);
    (* Accept the control connections and match Hellos to vertices. *)
    let have_conn = Array.make nv false in
    let data_addrs = Array.make nv "" in
    let deadline = monotonic () +. timeout in
    let connected = ref 0 in
    while !connected < nv do
      if monotonic () > deadline then fail "Socket: timeout waiting for node Hellos";
      let rset = lfd :: List.map (fun c -> c.fd) !anon in
      (match Unix.select rset [] [] 0.5 with
      | rs, _, _ ->
          if List.memq lfd rs then begin
            match Unix.accept ~cloexec:true lfd with
            | fd, _ -> anon := conn_make fd :: !anon
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          end;
          List.iter
            (fun c ->
              if List.memq c.fd rs then begin
                conn_read c;
                match conn_extract c with
                | Ok () -> ()
                | Error e -> fail "Socket: bad Hello framing: %s" e
              end)
            !anon
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      anon :=
        List.filter
          (fun c ->
            if Queue.is_empty c.frames then
              if c.alive then true else fail "Socket: node died before Hello"
            else begin
              (match Queue.pop c.frames with
              | k, body when k = k_hello -> (
                  match parse_hello body with
                  | id, tok, data_addr ->
                      if tok <> token then fail "Socket: Hello token mismatch";
                      let di = Ledger.vertex_index l id in
                      if di < 0 then fail "Socket: Hello from unknown node %d" id;
                      if have_conn.(di) then fail "Socket: duplicate Hello from node %d" id;
                      have_conn.(di) <- true;
                      f.conns.(di) <- c;
                      data_addrs.(di) <- data_addr;
                      incr connected
                  | exception Codec.Bad e -> fail "Socket: bad Hello: %s" e)
              | _ -> fail "Socket: expected Hello");
              false
            end)
          !anon
    done;
    close_listener ();
    (match ctrl_addr with
    | Unix.ADDR_UNIX p -> ( try Sys.remove p with Sys_error _ -> ())
    | _ -> ());
    (* Wire plan: an undirected peer link per vertex pair with an edge in
       either direction; the lower id dials. *)
    let out_ids = Array.make nv [] in
    let in_ids = Array.make nv [] in
    let linked = Hashtbl.create 64 in
    List.iter
      (fun (src, dst, _) ->
        let si = Ledger.vertex_index l src and di = Ledger.vertex_index l dst in
        out_ids.(si) <- dst :: out_ids.(si);
        in_ids.(di) <- src :: in_ids.(di);
        let pair = (min src dst, max src dst) in
        if not (Hashtbl.mem linked pair) then Hashtbl.replace linked pair ())
      (Digraph.edges g);
    let dial = Array.make nv [] in
    let accept_n = Array.make nv 0 in
    Hashtbl.iter
      (fun (a, b) () ->
        let ai = Ledger.vertex_index l a and bi = Ledger.vertex_index l b in
        dial.(ai) <- (b, data_addrs.(bi)) :: dial.(ai);
        accept_n.(bi) <- accept_n.(bi) + 1)
      linked;
    for di = 0 to nv - 1 do
      queue_frame f.conns.(di) k_init
        (body_init
           {
             i_out = List.sort_uniq compare out_ids.(di);
             i_in = List.sort_uniq compare in_ids.(di);
             i_dial = List.sort compare dial.(di);
             i_accept = accept_n.(di);
           })
    done;
    (* Wait for every node to finish peer wiring. *)
    let ready = Array.make nv false in
    let n_ready = ref 0 in
    pump f.conns
      ~deadline:(monotonic () +. timeout)
      ~expect_live:true
      ~done_:(fun () ->
        Array.iteri
          (fun i c ->
            if (not ready.(i)) && not (Queue.is_empty c.frames) then begin
              match Queue.pop c.frames with
              | k, _ when k = k_ready ->
                  ready.(i) <- true;
                  incr n_ready
              | _ -> fail "Socket: expected Ready"
            end)
          f.conns;
        !n_ready = nv);
    f
  with e ->
    close_listener ();
    List.iter conn_close !anon;
    stop_fleet ~grace:0.0 f;
    raise e

(* A parked node is silent, so a readable control channel means EOF (the
   node died while parked) or stray bytes: either way not reusable. *)
let idle f =
  Array.for_all (fun c -> c.alive) f.conns
  &&
  match Unix.select (Array.fold_right (fun c acc -> c.fd :: acc) f.conns []) [] [] 0.0 with
  | [], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let create ?(mode : mode = `Unix) ?(obs = Nab_obs.null) ?(keep_events = false) g =
  if not (Atomic.get hook_installed) then
    fail
      "Socket.create: this process never called Socket.exec_node_if_requested \
       at startup; refusing to spawn %s (its main would run per node)"
      Sys.executable_name;
  Lazy.force ignore_sigpipe;
  let sim = Sim.create ~obs ~keep_events g ~bits:Packet.bits in
  let key = (match mode with `Unix -> "unix " | `Tcp -> "tcp ") ^ Digraph.fingerprint g in
  let fleet =
    match take_parked key with
    | Some f when idle f -> f
    | stale ->
        Option.iter (stop_fleet ~grace:0.0) stale;
        spawn_fleet ~mode ~key (Sim.ledger sim) g
  in
  { sim; fleet; state = `Live; node_stats = [] }

(* ------------------------------- close -------------------------------- *)

(* End the lease on a quiescent fleet: every node reports the lease's
   traffic in a Stats frame and stays up, silent, for the next lease. *)
let release t =
  let f = t.fleet in
  Array.iter (fun c -> queue_frame c k_release "") f.conns;
  let got = Array.make (Array.length f.conns) false in
  pump f.conns
    ~deadline:(monotonic () +. 5.0)
    ~expect_live:true
    ~done_:(fun () ->
      Array.iteri
        (fun i c ->
          if (not got.(i)) && not (Queue.is_empty c.frames) then begin
            match Queue.pop c.frames with
            | k, body when k = k_stats -> (
                match parse_stats body with
                | s ->
                    got.(i) <- true;
                    t.node_stats <- (Ledger.vertex (Sim.ledger t.sim) i, s) :: t.node_stats
                | exception Codec.Bad e -> fail "Socket: bad Stats: %s" e)
            | _ -> fail "Socket: expected Stats"
          end)
        f.conns;
      Array.for_all Fun.id got);
  if not (Array.for_all (fun c -> Queue.is_empty c.frames && c.rx.len = 0) f.conns) then
    fail "Socket: unexpected control frames at release"

let close t =
  match t.state with
  | `Closed -> ()
  | `Failed _ ->
      t.state <- `Closed;
      stop_fleet ~grace:5.0 t.fleet
  | `Live ->
      t.state <- `Closed;
      (match release t with
      | () -> park t.fleet
      | exception (Socket_error _ | Unix.Unix_error _) -> stop_fleet ~grace:5.0 t.fleet);
      t.node_stats <- List.sort compare t.node_stats

(* ------------------------------- round --------------------------------- *)

(* Why an Inbox body differs from the prediction, for the error. *)
let diverged ~v ~round_no body =
  match parse_inbox body with
  | exception Codec.Bad e -> fail "Socket: bad Inbox from node %d: %s" v e
  | r, _ when r <> round_no ->
      fail "Socket: node %d reported round %d inbox in round %d" v r round_no
  | _, arrivals ->
      List.iter
        (fun (src, bytes) ->
          match Packet.decode bytes with
          | Ok _ -> ()
          | Error e -> fail "Socket: corrupt packet from node %d: %s" src e)
        arrivals;
      fail "Socket: wire exchange diverged from the synchronous prediction at node %d" v

(* The simulator runs the round first — recording each node's outbox — and
   its inboxes are the prediction; the fleet then moves the same sends over
   real links, and every node's inbox must equal the prediction. Nodes
   report [Packet.encode] of what they decoded, and the encoding is
   deterministic and injective, so the check is one comparison of the
   Inbox body with the body of the predicted inbox — built from the
   encodings already made for the Outbox frames. Any divergence is a
   transport fault, not data. *)
let round t ~phase outbox =
  guard t @@ fun () ->
  let f = t.fleet in
  let l = Sim.ledger t.sim in
  let nv = Ledger.nv l in
  let outboxes = Array.make nv [] in
  let predicted =
    Sim.round t.sim ~phase (fun v ->
        let sends = outbox v in
        outboxes.(Ledger.vertex_index l v) <- sends;
        sends)
  in
  let round_no = Sim.rounds_run t.sim in
  (* Per destination index: (src, packet, encoding) of every wire send. *)
  let sent = Array.make nv [] in
  Array.iteri
    (fun ui sends ->
      let v = Ledger.vertex l ui in
      let frame_sends =
        List.filter_map
          (fun (dst, msg) ->
            if Ledger.edge_id l v dst >= 0 then begin
              let bytes = Packet.encode msg in
              let di = Ledger.vertex_index l dst in
              sent.(di) <- (v, msg, bytes) :: sent.(di);
              Some (dst, bytes)
            end
            else None)
          sends
      in
      queue_frame f.conns.(ui) k_outbox (body_outbox ~round:round_no frame_sends))
    outboxes;
  let inboxes = Array.make nv None in
  let n_in = ref 0 in
  pump f.conns
    ~deadline:(monotonic () +. timeout)
    ~expect_live:true
    ~done_:(fun () ->
      Array.iteri
        (fun i c ->
          if inboxes.(i) = None && not (Queue.is_empty c.frames) then begin
            match Queue.pop c.frames with
            | k, body when k = k_inbox ->
                inboxes.(i) <- Some body;
                incr n_in
            | _ -> fail "Socket: expected Inbox"
          end)
        f.conns;
      !n_in = nv);
  Array.iteri
    (fun di body ->
      let v = Ledger.vertex l di in
      let encoded (src, p) =
        match List.find_opt (fun (s, m, _) -> s = src && m == p) sent.(di) with
        | Some (_, _, bytes) -> (src, bytes)
        | None -> (src, Packet.encode p)
      in
      let expect = body_inbox ~round:round_no (List.map encoded (predicted v)) in
      let body = Option.get body in
      if not (String.equal body expect) then diverged ~v ~round_no body)
    inboxes;
  predicted

let pending_count t =
  check_live t;
  Sim.pending_count t.sim

let drain t ~phase =
  check_live t;
  Sim.drain t.sim ~phase

let node_stats t = t.node_stats
let pids t = Array.to_list t.fleet.pids

(* --------------------------- TRANSPORT packing ------------------------- *)

module Socket_transport = struct
  type nonrec t = t

  let graph t = Sim.graph t.sim
  let obs t = Sim.obs t.sim
  let round = round
  let pending_count = pending_count
  let drain = drain
  let add_cost t = Sim.add_cost t.sim
  let timing t = Sim.timing t.sim
  let link_bits t = Sim.link_bits t.sim
  let dropped t = Sim.dropped t.sim
  let utilization t = Sim.utilization t.sim
  let events_of_phase t = Ledger.transport_events (Sim.ledger t.sim)
  let keeps_events t = Sim.keeps_events t.sim
  let rounds_run t = Sim.rounds_run t.sim
  let close = close
end

let transport (t : t) : Transport.t = Transport.pack (module Socket_transport) t

let factory ?mode () : Transport.factory =
 fun ~obs ~keep_events g -> transport (create ?mode ~obs ~keep_events g)

(* ----------------------------- availability ---------------------------- *)

(* Can this process run socket fleets at all? Probes the exact primitives
   create relies on: the worker hook, spawning this binary as a node (it
   exits at once) and reaping it, and a bound listener in the selected
   mode. Used by test/bench tiers to skip gracefully on platforms where
   the backend cannot run rather than fail. *)
let available ?(mode : mode = `Unix) () =
  if not (Atomic.get hook_installed) then
    Error "process did not call Socket.exec_node_if_requested at startup"
  else
    match
      let dir = match mode with `Unix -> Some (Filename.temp_dir "nab-probe" "") | `Tcp -> None in
      let addr =
        match dir with
        | Some d -> Unix.ADDR_UNIX (Filename.concat d "probe")
        | None -> Unix.ADDR_INET (Unix.inet_addr_loopback, 0)
      in
      let fd = socket_for addr in
      Unix.bind fd addr;
      Unix.listen fd 1;
      Unix.close fd;
      (match dir with
      | Some d -> (
          (try Sys.remove (Filename.concat d "probe") with Sys_error _ -> ());
          try Unix.rmdir d with Unix.Unix_error _ -> ())
      | None -> ());
      match Unix.waitpid [] (spawn_node "probe") with
      | _, Unix.WEXITED 0 -> ()
      | _ -> fail "probe node process did not exit cleanly"
    with
    | () -> Ok ()
    | exception e -> Error (Printexc.to_string e)
