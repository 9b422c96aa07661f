(** Simulated QUIC packet protection.

    The paper's central argument for reference-implementation-based
    concretization is that QUIC's key schedule makes hand-writing a
    mapper intractable: packets are encrypted with keys derived from
    handshake secrets, so the Adapter must run real protocol logic.
    This module reproduces that structure — per-level secrets (initial
    keys derived from the client's destination connection id, handshake
    and application keys derived from randoms exchanged in CRYPTO
    frames), per-direction keys, an authenticated stream cipher — using
    a non-cryptographic PRF (iterated splitmix64). The *shape* is
    faithful: a receiver without the right per-level secret cannot
    decode a packet, and tampered ciphertext fails authentication.
    This is NOT real cryptography and offers no confidentiality. *)

type level = Initial_level | Handshake_level | Application_level

val level_to_string : level -> string

type direction = Client_to_server | Server_to_client

type t
(** A mutable key schedule tracking which secrets are available. *)

val create : unit -> t

val install_initial : t -> dcid:string -> unit
(** Derive initial secrets from the client's first destination
    connection id (both endpoints can compute these, as in RFC 9001). *)

val install_handshake : t -> client_random:string -> server_random:string -> unit
(** Derive handshake secrets once ClientHello/ServerHello randoms have
    been exchanged; application secrets are derived at the same time
    (one-round-trip handshake). *)

val drop_level : t -> level -> unit
(** Discard keys for a level (e.g. initial keys after handshake). *)

val update_application : t -> unit
(** Key update (RFC 9001 §6): replace the application secrets with the
    next generation (derived from the current ones) and flip the key
    phase. Both endpoints performing the same number of updates stay in
    sync. No-op when application keys are not installed. *)

val application_phase : t -> int
(** Number of key updates performed (the key-phase bit is its parity). *)

val has_level : t -> level -> bool

val tag_length : int

val seal_in_place :
  t ->
  level ->
  direction ->
  pn:int ->
  Bytes.t ->
  header_len:int ->
  payload_len:int ->
  bool
(** [seal_in_place t level dir ~pn buf ~header_len ~payload_len]
    protects a packet written once into [buf]: the header at
    [[0, header_len)], the plaintext right after it, then
    {!tag_length} bytes of room. The tag is taken over header,
    packet number and plaintext, the plaintext is encrypted where it
    lies and the tag written after it. [false] (and [buf] untouched)
    when the level's keys are not installed. *)

val open_at :
  t ->
  level ->
  direction ->
  pn:int ->
  string ->
  header_len:int ->
  sealed_len:int ->
  string option
(** [open_at t level dir ~pn data ~header_len ~sealed_len] decrypts
    and verifies the sealed body at [[header_len, header_len +
    sealed_len)] of [data] against the header at [[0, header_len)],
    reading both where they lie. [None] on missing keys or
    authentication failure. *)

val open_updated_application_at :
  t ->
  direction ->
  pn:int ->
  string ->
  header_len:int ->
  sealed_len:int ->
  string option
(** {!open_at} against the *next* 1-RTT key generation, without
    committing the update (the receiver side of a peer-initiated key
    update: commit with {!update_application} on success). *)

val seal :
  t -> level -> direction -> pn:int -> header:string -> string -> string option
(** [seal t level dir ~pn ~header plaintext] encrypts and authenticates
    (binding header and packet number), or [None] when the level's keys
    are not installed. The same protection as {!seal_in_place}, with
    header and plaintext given apart. *)

val open_ :
  t -> level -> direction -> pn:int -> header:string -> string -> string option
(** {!open_at} with header and sealed body given apart. *)

val open_updated_application :
  t -> direction -> pn:int -> header:string -> string -> string option
(** {!open_updated_application_at} with header and sealed body given
    apart. *)

val stateless_reset_token : dcid:string -> string
(** The 16-byte stateless reset token associated with a connection id
    (derivable by both endpoints in this simulation). *)

val hash64 : string -> int64
(** The underlying (non-cryptographic) 64-bit hash, exposed for tests. *)
