(** The message type carried by {!Sim} for every protocol in this repository:
    a payload plus the routing/multiplexing envelope. Envelope fields are
    charged a small fixed header; payloads dominate for large L, matching the
    paper's amortized accounting. *)

type t = {
  proto : string;  (** sub-protocol multiplexing label *)
  origin : int;  (** logical sender (as claimed) *)
  final_dst : int;  (** logical destination *)
  route : int list;  (** full relay path for path-routed packets; [] = direct *)
  payload : Wire.payload;
}

val bits : t -> int
(** Payload bits; the envelope is free, as in the paper's accounting, which
    charges only information bits (the schedule of which symbol crosses
    which link when is part of the static algorithm description). *)

val direct : proto:string -> origin:int -> dst:int -> Wire.payload -> t

(** {1 Byte codec}

    Envelope + payload in {!Wire}'s binary format, for {!Socket}'s framed
    links. [decode] is total: any byte string returns [Ok] or [Error]
    (bounded allocation, no exceptions), and [decode (encode p) = Ok p].
    Trailing bytes after the packet are an error. *)

val encode : t -> string
val decode : string -> (t, string) result
