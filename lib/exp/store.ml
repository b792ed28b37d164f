(* Sharded on-disk campaign result store. See store.mli for the layout,
   crash-safety and canonical-form contracts.

   A [t] is single-threaded by design: the campaign driver owns it and
   appends rows as the pool completes them. Only [seal] fans out (one
   worker per shard, touching disjoint files and disjoint array slots). *)

module Json = Nab_obs.Json

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt
let manifest_name = "MANIFEST.json"
let shard_name i = Printf.sprintf "shard-%02x.jsonl" i
let max_shards = 256

let shard_of_id ~shards id =
  if shards < 1 || shards > max_shards then err "shard_of_id: bad shard count %d" shards;
  Char.code (Digest.string id).[0] mod shards

(* Chained per-shard content hash: seed on the empty string, then fold each
   committed line through MD5. Incremental (a commit extends the chain
   without re-reading the shard) and order-sensitive (the manifest pins the
   exact committed byte sequence, not just a row multiset). *)
let hash_seed = Digest.string ""
let hash_line h line = Digest.string (h ^ line)

type manifest = {
  m_salt : string;
  m_shards : int;
  m_sealed : bool;
  m_rows : int array;
  m_bytes : int array;
  m_hash : string array;
}

type t = {
  dir : string;
  salt : string;
  nshards : int;
  mutable fds : Unix.file_descr array;
  rows : int array;
  bytes : int array;
  hash : string array; (* raw 16-byte digests, hex only in the manifest *)
  ids : (string, unit) Hashtbl.t;
  mutable pending : (int * string) list; (* reversed (shard, line) *)
  mutable pending_n : int;
  mutable is_sealed : bool;
  mutable closed : bool;
}

let row_count t = Array.fold_left ( + ) 0 t.rows
let mem t id = Hashtbl.mem t.ids id
let pending t = t.pending_n

(* ---- low-level IO ---- *)

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  try go 0 with Unix.Unix_error (e, _, _) -> err "write: %s" (Unix.error_message e)

let fsync_quiet fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

let fsync_dir dir =
  (* Makes the manifest rename durable. Best-effort: some filesystems
     reject fsync on a directory fd, and losing the very last commit on
     power failure only costs its rows a re-run. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      fsync_quiet fd;
      Unix.close fd

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Replace [path] atomically: write to [path].tmp, fsync, rename over. *)
let replace_file path content =
  let tmp = path ^ ".tmp" in
  let fd =
    try Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    with Unix.Unix_error (e, _, _) -> err "%s: %s" tmp (Unix.error_message e)
  in
  write_all fd content;
  fsync_quiet fd;
  Unix.close fd;
  (try Unix.rename tmp path
   with Unix.Unix_error (e, _, _) -> err "rename %s: %s" path (Unix.error_message e));
  fsync_dir (Filename.dirname path)

(* ---- the scenario id of a stored row ----

   Rows are written by Runner.row_to_json with "id" as the first field, so
   a cheap prefix scan almost always works; ids containing JSON escapes
   (or foreign rows) fall back to the strict parser. *)
let extract_id line =
  let n = String.length line in
  let prefix = {|{"id":"|} in
  let plen = String.length prefix in
  let fast =
    if n >= plen && String.sub line 0 plen = prefix then
      let rec scan i =
        if i >= n then None
        else
          match line.[i] with
          | '"' -> Some (String.sub line plen (i - plen))
          | '\\' -> None
          | _ -> scan (i + 1)
      in
      scan plen
    else None
  in
  match fast with
  | Some id -> id
  | None -> (
      match Json.of_string line with
      | Ok j -> (
          match Json.member "id" j with
          | Some (Json.Str s) -> s
          | _ -> err "stored row has no \"id\" field: %s" line)
      | Result.Error e -> err "unparsable stored row: %s" e)

(* ---- manifest codec ---- *)

let manifest_to_json t : Json.t =
  Json.Obj
    [
      ("schema", Json.Str "nab-store/1");
      ("salt", Json.Str t.salt);
      ("shards", Json.Int t.nshards);
      ("sealed", Json.Bool t.is_sealed);
      ("rows", Json.Int (row_count t));
      ( "shard",
        Json.List
          (List.init t.nshards (fun i ->
               Json.Obj
                 [
                   ("rows", Json.Int t.rows.(i));
                   ("bytes", Json.Int t.bytes.(i));
                   ("hash", Json.Str (Digest.to_hex t.hash.(i)));
                 ])) );
    ]

let manifest_of_json dir j =
  let get name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> v
    | None -> err "%s/%s: missing or mistyped field %S" dir manifest_name name
  in
  let m_salt = get "salt" Json.get_string in
  let m_shards = get "shards" Json.get_int in
  let m_sealed = get "sealed" Json.get_bool in
  if m_shards < 1 || m_shards > max_shards then
    err "%s/%s: bad shard count %d" dir manifest_name m_shards;
  let shard = get "shard" Json.get_list in
  if List.length shard <> m_shards then
    err "%s/%s: shard list length mismatch" dir manifest_name;
  let m_rows = Array.make m_shards 0 in
  let m_bytes = Array.make m_shards 0 in
  let m_hash = Array.make m_shards "" in
  List.iteri
    (fun i sj ->
      let geti name =
        match Option.bind (Json.member name sj) Json.get_int with
        | Some v when v >= 0 -> v
        | _ -> err "%s/%s: shard %d field %S" dir manifest_name i name
      in
      m_rows.(i) <- geti "rows";
      m_bytes.(i) <- geti "bytes";
      m_hash.(i) <-
        (match Option.bind (Json.member "hash" sj) Json.get_string with
        | Some h -> h
        | None -> err "%s/%s: shard %d field \"hash\"" dir manifest_name i))
    shard;
  { m_salt; m_shards; m_sealed; m_rows; m_bytes; m_hash }

let read_manifest dir =
  let path = Filename.concat dir manifest_name in
  let ic =
    try open_in_bin path
    with Sys_error e -> err "not a campaign store (no %s): %s" manifest_name e
  in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.of_string content with
  | Ok j -> manifest_of_json dir j
  | Result.Error e -> err "%s/%s: %s" dir manifest_name e

let total_rows m = Array.fold_left ( + ) 0 m.m_rows

(* ---- streaming readers ---- *)

let fold_shard ~dir m i ~init ~f =
  if i < 0 || i >= m.m_shards then err "fold_shard: shard %d out of range" i;
  let stop = m.m_bytes.(i) in
  if stop = 0 then init
  else
    let path = Filename.concat dir (shard_name i) in
    let ic = try open_in_bin path with Sys_error e -> err "%s" e in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (* Only the committed region: a torn tail past [stop] is invisible. *)
        let rec go consumed acc =
          if consumed >= stop then acc
          else
            match input_line ic with
            | exception End_of_file ->
                err "%s: committed region truncated (%d < %d bytes)" path consumed stop
            | line -> go (consumed + String.length line + 1) (f acc line)
        in
        go 0 init)

let fold ~dir ~init ~f =
  let m = read_manifest dir in
  let acc = ref init in
  for i = 0 to m.m_shards - 1 do
    acc := fold_shard ~dir m i ~init:!acc ~f
  done;
  !acc

(* ---- read-write opening, with crash recovery ---- *)

let open_shard_fd dir i =
  try
    Unix.openfile
      (Filename.concat dir (shard_name i))
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  with Unix.Unix_error (e, _, _) -> err "%s: %s" (shard_name i) (Unix.error_message e)

let fresh dir salt nshards =
  (* Discard whatever partial state is lying around: shard files of any
     index (the count may have changed) and the manifest. *)
  Array.iter
    (fun name ->
      if
        String.length name > 6
        && String.sub name 0 6 = "shard-"
        && Filename.check_suffix name ".jsonl"
        || name = manifest_name
        || name = manifest_name ^ ".tmp"
      then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Sys.readdir dir);
  let t =
    {
      dir;
      salt;
      nshards;
      fds = Array.init nshards (fun i -> open_shard_fd dir i);
      rows = Array.make nshards 0;
      bytes = Array.make nshards 0;
      hash = Array.make nshards hash_seed;
      ids = Hashtbl.create 1024;
      pending = [];
      pending_n = 0;
      is_sealed = false;
      closed = false;
    }
  in
  replace_file (Filename.concat dir manifest_name) (Json.to_string (manifest_to_json t) ^ "\n");
  t

let recover dir salt m =
  let nshards = m.m_shards in
  let t =
    {
      dir;
      salt;
      nshards;
      fds = [||];
      rows = Array.copy m.m_rows;
      bytes = Array.copy m.m_bytes;
      hash = Array.make nshards hash_seed;
      ids = Hashtbl.create (max 1024 (total_rows m * 2));
      pending = [];
      pending_n = 0;
      is_sealed = m.m_sealed;
      closed = false;
    }
  in
  for i = 0 to nshards - 1 do
    let path = Filename.concat dir (shard_name i) in
    let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
    if size < m.m_bytes.(i) then
      err "%s: shorter (%d) than its committed region (%d bytes)" path size m.m_bytes.(i);
    if size > m.m_bytes.(i) then begin
      (* A torn append from a crash after write, before the manifest
         commit: drop it and re-run those scenarios. *)
      let fd = open_shard_fd dir i in
      Unix.ftruncate fd m.m_bytes.(i);
      Unix.close fd
    end;
    (* One streaming pass: verify the committed chain hash and index ids. *)
    let h =
      fold_shard ~dir m i ~init:hash_seed ~f:(fun h line ->
          let id = extract_id line in
          if Hashtbl.mem t.ids id then err "%s: duplicate id %S" path id;
          Hashtbl.replace t.ids id ();
          hash_line h line)
    in
    if Digest.to_hex h <> m.m_hash.(i) then
      err "%s: committed content does not match the manifest hash (corrupt store?)" path;
    t.hash.(i) <- h
  done;
  t.fds <- Array.init nshards (fun i -> open_shard_fd dir i);
  t

let open_ ?(shards = 16) ~dir ~salt () =
  if shards < 1 || shards > max_shards then
    err "open_: shard count %d out of range 1..%d" shards max_shards;
  mkdir_p dir;
  if Sys.file_exists (Filename.concat dir manifest_name) then begin
    let m = read_manifest dir in
    if m.m_salt <> salt || m.m_shards <> shards then
      (* Different code version (or geometry): nothing in here may satisfy
         a resume. Restart empty. *)
      fresh dir salt shards
    else recover dir salt m
  end
  else fresh dir salt shards

(* ---- appending ---- *)

let add t ~id ~line =
  if t.closed then err "add on a closed store";
  if Hashtbl.mem t.ids id then err "duplicate row id %S" id;
  Hashtbl.replace t.ids id ();
  t.pending <- (shard_of_id ~shards:t.nshards id, line) :: t.pending;
  t.pending_n <- t.pending_n + 1

let commit t =
  if t.closed then err "commit on a closed store";
  if t.pending_n > 0 then begin
    let by_shard = Array.make t.nshards [] in
    (* t.pending is reversed; this second reversal restores add order. *)
    List.iter (fun (s, line) -> by_shard.(s) <- line :: by_shard.(s)) t.pending;
    Array.iteri
      (fun i lines ->
        if lines <> [] then begin
          let buf = Buffer.create 4096 in
          List.iter
            (fun line ->
              Buffer.add_string buf line;
              Buffer.add_char buf '\n';
              t.hash.(i) <- hash_line t.hash.(i) line;
              t.rows.(i) <- t.rows.(i) + 1)
            lines;
          t.bytes.(i) <- t.bytes.(i) + Buffer.length buf;
          write_all t.fds.(i) (Buffer.contents buf);
          fsync_quiet t.fds.(i)
        end)
      by_shard;
    t.pending <- [];
    t.pending_n <- 0;
    t.is_sealed <- false;
    replace_file
      (Filename.concat t.dir manifest_name)
      (Json.to_string (manifest_to_json t) ^ "\n")
  end

(* ---- sealing ---- *)

let seal ?jobs t =
  if t.closed then err "seal on a closed store";
  commit t;
  if not t.is_sealed then begin
    let m =
      {
        m_salt = t.salt;
        m_shards = t.nshards;
        m_sealed = false;
        m_rows = Array.copy t.rows;
        m_bytes = Array.copy t.bytes;
        m_hash = Array.map Digest.to_hex t.hash;
      }
    in
    (* Workers touch disjoint files and return the shard's new chain hash;
       the driver then swaps in fresh fds (the rename replaced the inodes
       the old O_APPEND descriptors pointed at). *)
    let rewritten =
      Nab_util.Pool.map ?jobs
        (fun i ->
          let lines =
            fold_shard ~dir:t.dir m i ~init:[] ~f:(fun acc line ->
                (extract_id line, line) :: acc)
          in
          let lines =
            List.sort (fun (a, _) (b, _) -> String.compare a b) (List.rev lines)
          in
          let buf = Buffer.create 4096 in
          let h =
            List.fold_left
              (fun h (_, line) ->
                Buffer.add_string buf line;
                Buffer.add_char buf '\n';
                hash_line h line)
              hash_seed lines
          in
          replace_file (Filename.concat t.dir (shard_name i)) (Buffer.contents buf);
          (h, Buffer.length buf))
        (List.init t.nshards Fun.id)
    in
    List.iteri
      (fun i (h, len) ->
        t.hash.(i) <- h;
        t.bytes.(i) <- len)
      rewritten;
    Array.iter Unix.close t.fds;
    t.fds <- Array.init t.nshards (fun i -> open_shard_fd t.dir i);
    t.is_sealed <- true;
    replace_file
      (Filename.concat t.dir manifest_name)
      (Json.to_string (manifest_to_json t) ^ "\n")
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.fds
  end
