(** Learning the TCP *client* role: alphabet, reference server peer and
    adapter.

    The client SUL ({!Tcp_client_machine}) is driven by two kinds of
    abstract inputs, mirroring the setup of Fiterău-Broștean et al.
    [22] (socket calls + wire input):

    {ul
    {- application commands — CONNECT, SEND, CLOSE — delivered through
       the instrumented API;}
    {- server segments — SYN+ACK, ACK, ACK+PSH, FIN+ACK, RST —
       concretized by a reference *server* endpoint that tracks the
       connection state, exactly as the reference client does for
       server learning.}}

    Outputs are the abstract flag views of whatever segments the client
    emits. *)

type symbol =
  | Cmd_connect  (** CONNECT socket call *)
  | Cmd_send  (** SEND(1 byte) *)
  | Cmd_close  (** CLOSE *)
  | In_syn_ack  (** SYN+ACK(?,?,0) from the server *)
  | In_ack  (** ACK(?,?,0) *)
  | In_ack_psh  (** ACK+PSH(?,?,1) *)
  | In_fin_ack  (** FIN+ACK(?,?,0) *)
  | In_rst  (** RST(?,?,0) *)

val all : symbol array
val to_string : symbol -> string
val pp : Format.formatter -> symbol -> unit

type output = Tcp_alphabet.symbol list

val pp_output : Format.formatter -> output -> unit
val output_to_string : output -> string

val adapter :
  ?network:Prognosis_sul.Network.config ->
  seed:int64 ->
  unit ->
  (symbol, output, Tcp_wire.segment, Tcp_wire.segment) Prognosis_sul.Adapter.t
(** Concrete inputs recorded in the Oracle Table are the segments the
    reference peer sent; concrete outputs the segments the client
    emitted. Command steps record no sent segment. *)

val sul :
  ?network:Prognosis_sul.Network.config ->
  seed:int64 ->
  unit ->
  (symbol, output) Prognosis_sul.Sul.t
(** Learner-facing view ({!Prognosis_sul.Adapter.to_sul}) of a fresh
    {!adapter}: nothing is recorded; use {!adapter} and
    {!Prognosis_sul.Adapter.query} when synthesis needs the table. *)
