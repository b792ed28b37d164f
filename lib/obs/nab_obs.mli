(** Pluggable instrumentation: trace spans, counters and machine-readable
    run artifacts.

    This is the zero-dependency observability core every layer of the repo
    reports through: the simulator emits per-round and (sampled) per-message
    trace events, the protocol phases open spans, the NAB driver counts
    dispute-control firings and coding retries, and {!Nab_util.Pool} can
    account its batches. A {!ctx} carries the whole run; {e sinks} decide
    what happens to the data — the default {!null} context drops everything
    at the cost of one branch per call site (pay-for-what-you-use).

    {2 Determinism}

    Every quantity recorded by the in-tree emitters is {e logical}: sequence
    numbers, simulated time, bit counts, round counts. No wall clock is
    read, so fixed-seed trace and metrics artifacts are byte-identical at
    any [NAB_JOBS] value, the same contract [test/test_parallel.ml]
    enforces for printed results.

    {2 Trace schema (JSONL sink)}

    One JSON object per line, keys always in this order:
    {v
    {"seq":12,"t":34.5,"scope":"sim","ev":"point","name":"round","attrs":{...}}
    v}
    - [seq]: int, strictly increasing from 0 within a context;
    - [t]: number, logical timestamp (simulated time units; 0 when n/a);
    - [scope]: string, the emitting subsystem ("sim", "proto", "nab", "pool");
    - [ev]: one of ["begin"], ["end"], ["point"] — span delimiters or an
      instantaneous event;
    - [name]: string, event name; [begin]/[end] pairs balance per
      [(scope, name)];
    - [attrs]: optional object of scalars.

    [bin/trace_lint.ml] validates exactly this schema.

    {2 Metrics schema (CSV sink)}

    Aggregated in the context, flushed on {!close}, sorted by name:
    {v name,kind,count,sum,min,max,last v}
    [kind] is [counter] ({!add}) or [gauge] ({!gauge}); [count] is the
    number of recordings. *)

(** {1 JSON} *)

module Json : sig
  (** A hand-rolled JSON tree (no external dependency), with a strict
      parser. Numbers that look integral parse as [Int]. Non-finite floats
      are emitted (and parsed back) as the strings ["inf"], ["-inf"],
      ["nan"] — JSON itself cannot carry them. *)

  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val float : float -> t
  (** [Float x], or the string encoding when [x] is not finite. *)

  val to_buffer : Buffer.t -> t -> unit
  (** Compact encoding; object keys keep their given order; floats use the
      shortest representation that round-trips. *)

  val to_string : t -> string

  val of_string : string -> (t, string) result
  (** Strict parse of a single JSON value (surrounding whitespace allowed). *)

  val member : string -> t -> t option
  (** Field lookup; [None] on missing field or non-object. *)

  val get_int : t -> int option
  val get_float : t -> float option
  (** [Int]s widen; the non-finite string encodings decode. *)

  val get_string : t -> string option
  val get_bool : t -> bool option
  val get_list : t -> t list option
end

(** {1 Events and metrics} *)

type value = I of int | F of float | S of string | B of bool
(** Attribute scalar. *)

type span = Begin | End | Point

type event = {
  seq : int;
  t : float;  (** logical timestamp (simulated time), 0 when n/a *)
  scope : string;
  ev : span;
  name : string;
  attrs : (string * value) list;
}

type kind = Counter | Gauge

type metric = {
  m_name : string;
  m_kind : kind;
  m_count : int;  (** number of recordings *)
  m_sum : float;
  m_min : float;
  m_max : float;
  m_last : float;
}

(** {1 Sinks} *)

type sink = {
  sink_event : event -> unit;  (** called per event, in [seq] order *)
  sink_metrics : metric list -> unit;
      (** called once from {!close}, sorted by name *)
  sink_close : unit -> unit;  (** called last from {!close} *)
}

val null_sink : sink

val jsonl_sink : out_channel -> sink
(** Streams each event as one JSON line; ignores metrics; flushes on close
    (the channel is not closed — the opener owns it). *)

val csv_sink : out_channel -> sink
(** Writes the metrics CSV (header + one row per metric) on close; ignores
    events. *)

val buffer_jsonl_sink : Buffer.t -> sink
(** {!jsonl_sink} into a [Buffer.t] — for tests and in-memory capture. *)

val buffer_csv_sink : Buffer.t -> sink

(** {1 Context} *)

type ctx

val null : ctx
(** The default context: disabled, never records anything. All emitters
    reduce to a single branch on it. *)

val make : ?sample_messages:int -> sink list -> ctx
(** A live context fanning out to the given sinks. [sample_messages = s > 0]
    asks the simulator to emit every s-th delivered message as a trace
    event (default 0: rounds only — message traces are bulky). *)

val enabled : ctx -> bool
(** [false] exactly for {!null}. Emitters with non-trivial attribute
    construction should guard on this. *)

val sample_messages : ctx -> int

val span_begin :
  ctx -> scope:string -> ?t:float -> ?attrs:(string * value) list -> string -> unit

val span_end :
  ctx -> scope:string -> ?t:float -> ?attrs:(string * value) list -> string -> unit

val point :
  ctx -> scope:string -> ?t:float -> ?attrs:(string * value) list -> string -> unit

val add : ctx -> string -> int -> unit
(** Bump a counter. *)

val gauge : ctx -> string -> float -> unit
(** Set a gauge (last value wins; min/max/count still aggregate). *)

val metrics : ctx -> metric list
(** Aggregated so far, sorted by name (empty for {!null}). *)

val close : ctx -> unit
(** Flush metrics to every sink, then close the sinks. Idempotent; a
    no-op on {!null}. The context must not be used afterwards. *)

(** All recording calls are thread-safe: a single mutex serializes sequence
    numbering, sink fan-out and metric aggregation, so pool workers may
    share the context. *)
