(** Sharded on-disk campaign result store: the layer that lets [Nab_exp]
    campaigns scale to 10^5+ scenarios with crash-safe resume and
    streaming, bounded-memory analysis.

    {2 Layout}

    A store is a directory of JSONL shard files plus one manifest:
    {v
    DIR/
      MANIFEST.json     the commit point (written by tmp + rename)
      shard-00.jsonl    one result row per line
      ...
      shard-0f.jsonl
    v}
    A row lands in the shard named by the first byte of the MD5 of its
    scenario id ({!shard_of_id}) — a content fingerprint prefix, so the
    placement is stable across processes, job counts and campaign order.

    {2 Crash safety}

    Rows are buffered by {!add} and made durable by {!commit}: the buffered
    lines are appended to their shard files (append-only — a shard is never
    rewritten by a commit), the touched shards are fsynced, and then the
    manifest is atomically replaced (write to [MANIFEST.json.tmp], fsync,
    rename). The manifest records, per shard, the committed row count, byte
    length and a chained content hash; bytes past the committed length are
    a torn append from a crash and are truncated on the next {!open_}. A
    killed campaign therefore resumes from its last commit, and a hash
    mismatch inside the committed region fails loudly instead of silently
    merging corrupt rows.

    {2 Canonical (sealed) form}

    {!seal} rewrites each shard with its rows sorted by id (tmp + rename
    again) and marks the manifest [sealed]. Sealed bytes depend only on the
    {e set} of rows: a one-shot run, an interrupted-and-resumed run and any
    [--jobs] value produce byte-identical sealed stores — the property the
    resume-determinism test pins.

    One row per id: {!add} rejects duplicate ids, so a store is a map from
    scenario id to its (deterministic) result row. *)

exception Error of string
(** Unrecoverable store problems: unreadable manifest, committed-region
    hash mismatch, duplicate id, I/O failure. *)

type t

val open_ : ?shards:int -> dir:string -> salt:string -> unit -> t
(** Open (creating the directory if needed) a store for read-write use.
    [salt] is the code-version salt: a store whose manifest carries a
    different salt (or shard count) is discarded and restarted empty —
    rows produced by different code must never satisfy a resume. On an
    existing store the committed regions are verified against the manifest
    hashes and any torn tail is truncated; [shards] (default 16, max 256)
    applies only when the store is created fresh. *)

val row_count : t -> int
(** Committed rows (excluding {!add}ed-but-uncommitted ones). *)

val mem : t -> string -> bool
(** Is a row with this scenario id present (committed or pending)? The
    resume check: {!Runner.run_campaign_store} skips these. *)

val add : t -> id:string -> line:string -> unit
(** Buffer one result row ([line] is the row's JSON, no trailing newline)
    for the next {!commit}. Raises {!Error} on a duplicate id. *)

val pending : t -> int
(** Buffered rows not yet committed. *)

val commit : t -> unit
(** Make every buffered row durable, as described above. A no-op when
    nothing is pending. *)

val seal : ?jobs:int -> t -> unit
(** Commit pending rows, then rewrite each shard in canonical id-sorted
    order (parallel over shards on {!Nab_util.Pool}) and mark the manifest
    sealed. Idempotent on an already-sealed store. *)

val close : t -> unit
(** Close shard file descriptors ({e without} committing pending rows —
    commit first). Idempotent; the [t] must not be used afterwards. *)

val shard_of_id : shards:int -> string -> int
(** The shard index a scenario id maps to: first byte of [MD5(id)] mod
    [shards]. *)

val shard_name : int -> string
(** The shard's file name within the store directory, ["shard-%02x.jsonl"]. *)

(** {1 Streaming readers}

    Readers work from the manifest of an on-disk store without an open
    {!t}: they stream committed bytes line by line and never materialize a
    shard, so folding a store needs memory for one row at a time — the
    contract [campaign analyze] relies on. *)

type manifest = {
  m_salt : string;
  m_shards : int;
  m_sealed : bool;
  m_rows : int array;  (** committed rows per shard *)
  m_bytes : int array;  (** committed bytes per shard *)
  m_hash : string array;  (** chained content hash per shard (hex) *)
}

val read_manifest : string -> manifest
(** Read [DIR/MANIFEST.json]; raises {!Error} if absent or malformed. *)

val fold_shard : dir:string -> manifest -> int -> init:'a -> f:('a -> string -> 'a) -> 'a
(** Fold over the committed lines of one shard, in file order. Only the
    committed byte region is read, so a torn tail never reaches [f]. *)

val fold : dir:string -> init:'a -> f:('a -> string -> 'a) -> 'a
(** Fold over every committed line, shard 0 first, file order within a
    shard — the canonical row order of a sealed store. *)
