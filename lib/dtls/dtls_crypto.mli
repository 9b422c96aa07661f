(** Simulated MiniDTLS record protection.

    Same design as the QUIC simulation: a non-cryptographic PRF drives
    an authenticated stream cipher, keyed by a master secret derived
    from the handshake randoms and the client's premaster secret. The
    shape is faithful (no keys → no decryption; tampering fails
    authentication); the arithmetic is NOT real cryptography. *)

type t

val create : unit -> t

val reset : t -> unit
(** Drop the keys, as {!create} has none. *)

val derive_master :
  t -> client_random:string -> server_random:string -> premaster:string -> unit
(** Install epoch-1 keys from the handshake inputs. *)

val ready : t -> bool

type direction = Client_write | Server_write

val tag_length : int

val seal_in_place :
  t -> direction -> epoch:int -> seq:int -> Bytes.t -> int -> int -> bool
(** [seal_in_place t dir ~epoch ~seq b off len] protects the [len]
    plaintext bytes at [off] where they lie: the tag is taken over the
    plaintext first, then the keystream XOR runs in place and the
    {!tag_length}-byte tag is written right after the ciphertext, in
    room the caller left for it. [false], and nothing written, when the
    keys are not installed.
    @raise Invalid_argument when the range and tag do not fit in [b]. *)

val open_at :
  t ->
  direction ->
  epoch:int ->
  seq:int ->
  string ->
  int ->
  int ->
  string option
(** [open_at t dir ~epoch ~seq data off len] decrypts the [len] sealed
    bytes (tag included) at [off] in [data] into a fresh plaintext and
    checks the tag; [None] without keys, on a bad tag or a range outside
    [data]. *)

val seal : t -> direction -> epoch:int -> seq:int -> string -> string option
(** {!seal_in_place} over a copy of the plaintext. *)

val open_ : t -> direction -> epoch:int -> seq:int -> string -> string option
(** {!open_at} over a whole string. *)

val verify_data : t -> direction -> string
(** The Finished message body each side must present (a MAC over the
    master secret, distinct per direction). Empty string when keys are
    not installed. *)
