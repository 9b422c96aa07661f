(** A TCP server implementation: the System Under Learning of the
    paper's §6.1 case study (standing in for the Ubuntu 20.04 stack).

    The server hosts a passive listener on a single port and serves one
    connection per learning query. It is driven entirely through the
    wire format — the adapter sends encoded segments and receives
    encoded segments back, honouring the closed-box assumption. The
    state machine implements the RFC 793 lifecycle with Linux-style
    behaviours (challenge ACKs for in-window SYNs, RSTs to stray
    segments on the listener, one-shot listener teardown after a
    completed close). *)

type state =
  | Listen
  | Syn_rcvd
  | Established
  | Close_wait
  | Last_ack
  | Closed

val state_to_string : state -> string

type config = {
  port : int;
  one_shot : bool;
      (** when true, a fully closed connection also closes the listener,
          so late segments are refused — this distinguishes the final
          CLOSED state from LISTEN in the learned model *)
  challenge_acks : bool;
      (** respond to in-connection SYNs with a challenge ACK (Linux)
          rather than ignoring them *)
}

val default_config : config

type t

val create : ?config:config -> Prognosis_sul.Rng.t -> t
(** The RNG seeds the initial sequence numbers chosen on each reset. *)

val reset : t -> unit
(** Return the server to a fresh listener with a new ISN
    (instrumentation property 3 of §3.2). *)

val state : t -> state
val config : t -> config

val handle : t -> Tcp_wire.segment -> Tcp_wire.segment list
(** Process one decoded segment, returning response segments. *)

val handle_at : t -> headroom:int -> string -> int -> int -> Bytes.t list
(** Wire-level entry point: [handle_at t ~headroom data off len]
    decodes the segment at [data[off, off+len)] where it lies (dropping
    malformed or checksum-failing ones), processes it and writes each
    response once, after [headroom] free bytes for the caller's framing
    ({!Prognosis_sul.Inet.frame_tcp}). *)

val handle_bytes : t -> string -> string list
(** {!handle_at} on a whole segment, responses without headroom. *)
