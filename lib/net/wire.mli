(** Universal wire payload for every protocol layer in the repository. Using
    one closed type (rather than a functorized payload) keeps the adversary
    code type-safe: a Byzantine node can emit arbitrary {e well-formed}
    payloads — exactly the paper's model, where faulty nodes send arbitrary
    bit strings and honest nodes parse them against the protocol schema.

    Bit accounting follows the paper: only protocol-level information bits
    are charged (a 1-bit flag costs 1 bit), plus explicit per-label/header
    overhead where a real encoding would need it. *)

type dir = Sent | Received

type payload =
  | Flag of bool  (** 1 bit *)
  | Value of { bits : int; data : int array }
      (** An L-bit broadcast value, as [rho] symbols of [bits/rho] bits; the
          declared [bits] is the wire size. *)
  | Coded of { sym_bits : int; data : int array }
      (** Equality-check coded symbols: [len data * sym_bits] bits. *)
  | Labeled of { label : int list; body : payload }
      (** EIG-labelled value; the label costs 8 bits per element. *)
  | Batch of payload list  (** Concatenation; at least 1 bit on the wire. *)
  | Claims of claim list
      (** Dispute-control transcript claims; 32-bit header per claim. *)
  | Nothing  (** Explicit absence (1 bit). *)

and claim = {
  c_phase : string;
  c_round : int;
  c_src : int;
  c_dst : int;
  c_dir : dir;
  c_body : payload;
}

val bits : payload -> int
(** Wire size in bits; always >= 1. *)

val equal : payload -> payload -> bool
val pp : Format.formatter -> payload -> unit

(** {1 Byte codec}

    The binary encoding {!Socket} frames on the real wire, inside a
    {!Packet} envelope. One tag byte per constructor; every integer is a
    zigzag LEB128 varint (so negative ints — which Byzantine senders do
    emit — round-trip exactly); strings, arrays and lists are
    length-prefixed.

    {b Framing overhead.} The encoding tracks {!bits} up to a constant
    per-node overhead: for every canonical protocol payload whose integer
    fields fit in 28 bits (4-byte varints — true of every honest payload in
    this repository: rounds, node ids, labels, symbol widths and
    field-symbol values), the [n] bytes {!encode_into} appends for [p]
    satisfy

    {[ 8 * n <= 2 * bits p + 64 * nodes p ]}

    where [nodes p] counts 1 per constructor, plus 1 per array element,
    label element and claim, plus the length of each claim's phase string.
    That is at most two physical bits per accounted information bit plus 64
    bits per structural node. [test/test_wire.ml] asserts this bound on
    every constructor and on deep random payloads; the constant is part of
    the codec contract, so tightening the encoding may lower it but a
    codec change must never raise it.

    {b Robustness.} {!decode_from} reads attacker-controlled bytes safely:
    malformed input raises {!Codec.Bad}, which {!Packet.decode} turns into
    [Error]. Declared element counts are validated against the bytes
    actually remaining {e before} any allocation, so a short frame claiming
    a billion elements is rejected in O(1); nesting is capped (depth 200),
    and unused tag bytes and bad claim directions are decode errors. This
    is the paper's "faulty nodes send arbitrary bit strings" model made
    real: honest nodes parse attacker-controlled bytes against this schema
    and survive. *)

(** Shared low-level primitives (varints, length-prefixed strings, bounded
    counts) for composite codecs layered over payloads: {!Packet}'s
    envelope codec and {!Socket}'s control frames. *)
module Codec : sig
  val add_uvarint : Buffer.t -> int -> unit
  (** Plain LEB128; the argument must be >= 0. *)

  val add_varint : Buffer.t -> int -> unit
  (** Zigzag LEB128; any int round-trips. *)

  val add_string : Buffer.t -> string -> unit

  type reader = { src : string; mutable pos : int }

  exception Bad of string
  (** Raised by the reader primitives on malformed input; top-level
      decoders catch it at their boundary and return [Error]. *)

  val need : reader -> int -> unit
  val byte : reader -> int
  val uvarint : reader -> int
  val varint : reader -> int
  val string_ : reader -> string

  val count : reader -> per:int -> int
  (** A declared element count, validated against the remaining input at
      [per] bytes minimum per element — callers can allocate [count]
      elements without an attacker-controlled blowup. *)
end

val encode_into : Buffer.t -> payload -> unit
(** Append the encoding of a payload to a buffer. *)

val decode_from : Codec.reader -> payload
(** Read one payload from a reader, leaving trailing bytes for the caller;
    raises {!Codec.Bad} on malformed input. *)
