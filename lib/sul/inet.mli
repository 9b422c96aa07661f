(** IPv4 and UDP codecs: the outermost layers of the native alphabet
    (paper Example 3.1 — "binary representations of packets that will
    be sent over the wire").

    The protocol adapters encapsulate every exchange the way a real
    stack would: TCP segments ride directly in IPv4 (protocol 6), QUIC
    and DTLS datagrams ride in UDP (protocol 17) inside IPv4. Headers
    carry real ones-complement checksums, so corruption injected by the
    simulated network is caught at the same layer it would be in
    practice. The UDP checksum covers the RFC 768 pseudo-header. The
    TCP checksum does not: [Tcp_wire] sums the segment
    alone, a known deviation from RFC 793 §3.1 (see DESIGN.md). *)

module Ipv4 : sig
  type t = {
    src : int;  (** 32-bit address *)
    dst : int;
    ttl : int;
    protocol : int;  (** 6 = TCP, 17 = UDP *)
    payload : string;
  }

  val tcp_protocol : int
  val udp_protocol : int

  val encode : t -> string
  (** 20-byte header (no options) + payload; header checksum filled. *)

  val decode : string -> (t, string) result
end

module Udp : sig
  type t = { src_port : int; dst_port : int; payload : string }

  val encode : src_ip:int -> dst_ip:int -> t -> string
  (** 8-byte header + payload; checksum over the RFC 768 pseudo-header. *)

  val decode : src_ip:int -> dst_ip:int -> string -> (t, string) result
end

(** {1 Write-once datagrams}

    A sender sizes its payload, allocates one buffer with [*_headroom]
    free bytes in front, writes the payload after them and frames the
    buffer: the headers are written into the room left for them and
    each checksum is summed where its bytes lie. A receiver checks the
    framing in place and reads the payload where it lies. *)

val tcp_headroom : int
(** 20: the IPv4 header in front of a TCP segment. *)

val udp_headroom : int
(** 28: the IPv4 and UDP headers in front of a UDP payload. *)

val frame_tcp : src:int -> dst:int -> Bytes.t -> string
(** Writes the IPv4 header into the first {!tcp_headroom} bytes of a
    buffer holding a TCP segment after them, and returns the buffer as
    the datagram; the caller must not touch the buffer again.
    @raise Invalid_argument when the datagram exceeds 65535 bytes. *)

val frame_udp :
  src:int -> dst:int -> src_port:int -> dst_port:int -> Bytes.t -> string
(** The same for a UDP payload after {!udp_headroom} bytes: UDP header
    (checksum over the RFC 768 pseudo-header) then IPv4 header. *)

val check_tcp : string -> (int * int, string) result
(** Every check of {!unwrap_tcp}, in place: the offset and length of
    the TCP segment inside the datagram. *)

val check_udp : string -> (int * int * int, string) result
(** Every check of {!unwrap_udp}, in place: the source port and the
    offset and length of the UDP payload. *)

val sum : int -> Bytes.t -> int -> int -> int
(** [sum acc b off len] is [acc] plus the RFC 1071 sum of the
    big-endian 16-bit words of [b[off, off+len)], an odd last byte
    padded with zero, carries not yet folded. Sums of even-length
    pieces add up, so a pseudo-header can be folded in as integers. One
    summer serves IPv4, UDP and TCP.
    @raise Invalid_argument when the range is outside [b]. *)

val finish : int -> int
(** Folds the carries of a {!sum} and complements it: the value of a
    checksum field. *)

(** {1 Copying wrappers} *)

val wrap_tcp : src:int -> dst:int -> string -> string
(** A TCP segment inside IPv4: {!frame_tcp} over a copy of it. *)

val unwrap_tcp : string -> (string, string) result
(** {!check_tcp}, then a copy of the segment. *)

val wrap_udp : src:int -> dst:int -> src_port:int -> dst_port:int -> string -> string
(** A datagram inside UDP inside IPv4: {!frame_udp} over a copy of it. *)

val unwrap_udp : string -> (int * string, string) result
(** Returns (source port, payload): the source port feeds QUIC's
    address validation. {!check_udp}, then a copy of the payload. *)
