(** The abstract MiniDTLS alphabet: six client symbols covering the
    cookie exchange, the handshake, the epoch switch, application data
    and closure — the same granularity the paper's TCP/QUIC alphabets
    use (message kinds, parameters erased). *)

type symbol =
  | Client_hello  (** CLIENT_HELLO(?) — cookie filled from state *)
  | Client_key_exchange  (** CLIENT_KEY_EXCHANGE(?) *)
  | Change_cipher_spec  (** CHANGE_CIPHER_SPEC *)
  | Finished  (** FINISHED(?) — requires negotiated keys *)
  | App_data  (** APPLICATION_DATA(?) — requires epoch 1 *)
  | Alert_close  (** ALERT(close_notify) *)

val all : symbol array
val to_string : symbol -> string
val pp : Format.formatter -> symbol -> unit

(** Abstract view of one server record. *)
type arecord =
  | A_hello_verify_request
  | A_server_hello
  | A_certificate
  | A_server_hello_done
  | A_change_cipher_spec
  | A_finished
  | A_app_data
  | A_alert

val arecord_to_string : arecord -> string

type output = arecord list

val output_to_string : output -> string
val pp_output : Format.formatter -> output -> unit

val abstract_record :
  Dtls_wire.record_ -> Dtls_wire.handshake option -> arecord option
(** α on a decoded record whose handshake message the caller has
    already decoded ([None] when it carries none or it does not
    decode); [None] for record contents outside the abstraction (never
    produced by the server). *)

val abstract : Dtls_wire.record_ -> arecord option
(** {!abstract_record}, decoding the handshake message itself. *)
