(** TCP segments: the protocol's native and concrete alphabets
    (paper §3.1, Examples 3.1–3.2).

    The native alphabet is the binary wire format: a real 20-byte TCP
    header (RFC 793 layout, ones-complement checksum over the segment
    only, see {!write}) followed by the payload. The concrete alphabet
    is the structured {!segment} record, mirroring the JSON
    representation shown in the paper. *)

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

val no_flags : flags
val flags_to_string : flags -> string
(** Canonical order, e.g. "SA" for SYN+ACK, "FA" for FIN+ACK. *)

val flags_of_string : string -> flags
(** Inverse of {!flags_to_string}; unknown characters raise
    [Invalid_argument]. *)

val flag_bits : flags -> int
(** The flags byte of the header: FIN 0x01, SYN 0x02, RST 0x04, PSH
    0x08, ACK 0x10, URG 0x20. *)

(** TCP header options (RFC 793 §3.1, RFC 7323). Options ride in the
    variable part of the header; the data offset grows accordingly and
    the checksum covers them. *)
type option_ =
  | Mss of int  (** maximum segment size (kind 2) *)
  | Window_scale of int  (** shift count (kind 3) *)
  | Sack_permitted  (** kind 4 *)
  | Timestamps of { value : int; echo : int }  (** kind 8 *)

val option_to_string : option_ -> string

type segment = {
  src_port : int;
  dst_port : int;
  seq : int;  (** sequence number, modulo 2^32 *)
  ack : int;  (** acknowledgement number, modulo 2^32 *)
  flags : flags;
  window : int;
  urgent : int;
  options : option_ list;
  payload : string;
}

val make :
  ?window:int ->
  ?urgent:int ->
  ?options:option_ list ->
  ?payload:string ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack:int ->
  flags ->
  segment

val find_mss : segment -> int option

val pp : Format.formatter -> segment -> unit

val seq_add : int -> int -> int
(** Sequence-number addition modulo 2^32. *)

val encoded_length : segment -> int
(** Header, options (NOP-padded to 32 bits) and payload. *)

val write : segment -> Bytes.t -> int -> unit
(** [write s b off] writes the {!encoded_length} bytes of the binary
    wire form at [off], written once, checksum filled in. The checksum
    is {!Prognosis_sul.Inet.sum} over the segment alone. RFC 793 §3.1
    also covers a pseudo-header of the IPv4 addresses, protocol and
    length; this codec does not, a known deviation kept because fixing
    it would change every TCP byte on the wire.
    @raise Invalid_argument when the options exceed 40 bytes. *)

val encode : segment -> string
(** {!write} into a buffer of its own. *)

val to_ipv4 : src:int -> dst:int -> segment -> string
(** The segment inside an IPv4 datagram: one buffer, the segment
    written after {!Prognosis_sul.Inet.tcp_headroom} bytes and framed
    in place. Equal to [Inet.wrap_tcp ~src ~dst (encode s)]. *)

val decode_at : string -> int -> int -> (segment, string) result
(** [decode_at data off len] parses the segment at [data[off, off+len)]
    where it lies and verifies its checksum; only options and payload
    are copied out. *)

val decode : string -> (segment, string) result
(** {!decode_at} over a whole string. *)

val of_ipv4 : string -> (segment, string) result
(** {!Prognosis_sul.Inet.check_tcp}, then {!decode_at} in place. *)

val to_json : segment -> string
(** The concrete-alphabet representation of the paper's Example 3.2: a
    JSON object with the fields [isNull], [sourcePort],
    [destinationPort], [seqNumber], [ackNumber], [dataOffset],
    [reserved], [flags], [window], [checksum], [urgentPointer].
    [dataOffset] and [checksum] are [null] before encoding fixes them,
    exactly as in the paper's listing. *)
