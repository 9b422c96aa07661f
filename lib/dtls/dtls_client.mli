(** The instrumented MiniDTLS reference client: γ for the six abstract
    symbols under live handshake state (randoms, cookie, premaster,
    key schedule, epochs, sequence numbers), with the same
    instrumentation discipline as the TCP/QUIC reference clients. *)

type t

val create : Prognosis_sul.Rng.t -> t
val reset : t -> unit

val concretize_into :
  t ->
  headroom:int ->
  Dtls_alphabet.symbol ->
  (Bytes.t * Dtls_wire.record_) option
(** The record for a symbol, written once after [headroom] free bytes
    for the caller's framing ({!Prognosis_sul.Inet.frame_udp}) and
    sealed in place once epoch 1 has keys, with the record itself
    (plaintext payload). [None] when the symbol cannot be realized yet
    (FINISHED or APP_DATA before keys / the epoch switch). *)

val concretize : t -> Dtls_alphabet.symbol -> (string * Dtls_wire.record_) option
(** {!concretize_into} without headroom. *)

val absorb_at :
  t ->
  string ->
  int ->
  int ->
  (Dtls_wire.record_ * Dtls_alphabet.arecord option) option
(** [absorb_at t data off len]: decode the server record at
    [data[off, off+len)] where it lies (opening epoch-1 records), update
    state (cookie, server random, epoch switch, closure) and return it
    with its abstraction; its handshake message is decoded once, for
    both. [None] for undecodable data. *)

val absorb : t -> string -> Dtls_wire.record_ option
(** {!absorb_at} over a whole record, without the abstraction. *)

val handshake_complete : t -> bool
val closed : t -> bool
val echoed : t -> string
(** Application data received from the server, concatenated. *)
