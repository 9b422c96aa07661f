(** The MiniDTLS server: a cookie-validating datagram-TLS-style
    handshake endpoint serving as a third System Under Learning.

    Lifecycle: ClientHello → (HelloVerifyRequest with a stateless
    cookie, when enabled) → ClientHello+cookie → ServerHello +
    Certificate + ServerHelloDone → ClientKeyExchange →
    ChangeCipherSpec → Finished (verified) → CCS + Finished →
    established echo service → close_notify alerts. Out-of-order
    messages are dropped or answered with a fatal alert, giving the
    learner observable structure. *)

type config = {
  require_cookie : bool;
      (** demand the HelloVerifyRequest round-trip (DTLS's DoS
          protection, the analogue of QUIC's Retry) *)
  strict_ccs : bool;
      (** answer a ChangeCipherSpec arriving before the key exchange
          with a fatal alert instead of silently dropping it *)
}

val default_config : config

type t

val create : ?config:config -> Prognosis_sul.Rng.t -> t
val reset : t -> unit
val phase_name : t -> string

val handle_at : t -> headroom:int -> string -> int -> int -> Bytes.t list
(** [handle_at t ~headroom data off len]: the record at
    [data[off, off+len)], decoded and opened where it lies, in; the
    response records out, each written once after [headroom] free bytes
    for the caller's framing ({!Prognosis_sul.Inet.frame_udp}) and
    sealed in place. *)

val handle_datagram : t -> string -> string list
(** One record in, response records out (wire level): {!handle_at}
    without headroom. *)
