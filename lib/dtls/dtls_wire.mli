(** MiniDTLS record and handshake-message codecs.

    A third protocol substrate demonstrating the framework's
    reusability claim (the paper's intro motivates with SSH/TLS/DTLS,
    and its related work [21] applies model learning to DTLS). The
    record layout follows RFC 6347: content type, version, epoch,
    48-bit sequence number, length; handshake messages carry the DTLS
    message-sequence/fragmentation header (fragments are always whole
    here). Epoch-1 records are protected by {!Dtls_crypto}. *)

type content_type =
  | Change_cipher_spec
  | Alert
  | Handshake
  | Application_data

val content_type_to_string : content_type -> string

type handshake_type =
  | Client_hello
  | Server_hello
  | Hello_verify_request
  | Certificate
  | Server_hello_done
  | Client_key_exchange
  | Finished

val handshake_type_to_string : handshake_type -> string

type handshake = {
  msg_type : handshake_type;
  message_seq : int;
  body : string;
}

val encode_handshake : handshake -> string
(** Header and body, written once.
    @raise Invalid_argument when the body exceeds the 24-bit length
    field (16 MiB). *)

val decode_handshake : string -> (handshake, string) result

type record_ = {
  content : content_type;
  epoch : int;
  seq : int;  (** 48-bit record sequence number *)
  payload : string;  (** plaintext payload (protection is applied at
                         encode time for epoch >= 1) *)
}

val pp_record : Format.formatter -> record_ -> unit

(** Record protection: [?keys] is the endpoint's crypto state and the
    direction it seals (or opens). An epoch >= 1 payload is sealed with
    {!Dtls_crypto.seal_in_place} when the keys are installed, and sent
    as plaintext before that; on decode it must open
    ({!Dtls_crypto.open_at}). Without [?keys], payloads are taken as
    they are. *)

val write_record :
  ?keys:Dtls_crypto.t * Dtls_crypto.direction ->
  headroom:int ->
  record_ ->
  Bytes.t
(** The record written once into one buffer: [headroom] free bytes for
    the caller's framing ({!Prognosis_sul.Inet.frame_udp}), the
    13-byte header, the payload, sealed in place.
    @raise Invalid_argument when the (sealed) payload exceeds the
    16-bit length field. *)

val write_handshake_record :
  ?keys:Dtls_crypto.t * Dtls_crypto.direction ->
  headroom:int ->
  epoch:int ->
  seq:int ->
  handshake ->
  Bytes.t
(** A [Handshake] record carrying the message, which is written in
    place rather than encoded first: equal to {!write_record} of a
    record whose payload is [encode_handshake h].
    @raise Invalid_argument as {!encode_handshake} and {!write_record}
    do. *)

val encode_record :
  ?keys:Dtls_crypto.t * Dtls_crypto.direction -> record_ -> string
(** {!write_record} without headroom. *)

val decode_record_at :
  ?keys:Dtls_crypto.t * Dtls_crypto.direction ->
  string ->
  int ->
  int ->
  (record_, string) result
(** [decode_record_at s off len] decodes the record at
    [s[off, off+len)] where it lies: protected payloads are
    authenticated and decrypted from the datagram, plain ones copied
    out once. A payload that fails to open is an [Error] (wrong keys,
    no keys, tampering). *)

val decode_record :
  ?keys:Dtls_crypto.t * Dtls_crypto.direction ->
  string ->
  (record_, string) result
(** {!decode_record_at} over a whole string. *)
