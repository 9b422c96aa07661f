(** QUIC variable-length integers (RFC 9000 §16).

    The two most significant bits of the first byte give the encoding
    length (1, 2, 4 or 8 bytes); the remainder carries the value in
    network byte order. Values up to 2^62 - 1 are representable. *)

val max_value : int
(** 2^62 - 1. *)

val encoded_length : int -> int
(** Bytes needed: 1, 2, 4 or 8.
    @raise Invalid_argument for negative values or values above
    {!max_value}. *)

val write : Bytes.t -> int -> int -> int
(** [write b off v] writes [v] at [off] and returns the offset just
    past it; [b] must have {!encoded_length}[ v] bytes of room there.
    @raise Invalid_argument as {!encoded_length}. *)

val encode_to_string : int -> string

val read : string -> int ref -> int
(** [read s pos] is the value at [!pos]; [pos] is advanced past it.
    @raise Invalid_argument when the string is too short. *)
