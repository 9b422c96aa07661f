(** The complete QUIC System Under Learning: instrumented reference
    client + simulated network + profiled server, packaged as an
    Adapter (paper Figure 2, §6.2.2).

    Each abstract step runs γ through the reference client; when the
    client state cannot realize the requested symbol, nothing is sent
    and the answer is NIL — the closed-box analogue of QUIC-Tracker
    failing to build a packet it has no keys for. Every concrete packet
    exchanged by a word asked through {!Prognosis_sul.Adapter.query}
    is recorded in the Oracle Table. *)

type concrete = Quic_packet.t

val create :
  ?profile:Quic_profile.t ->
  ?client_config:Quic_client.config ->
  ?network:Prognosis_sul.Network.config ->
  seed:int64 ->
  unit ->
  (Quic_alphabet.symbol, Quic_alphabet.output, concrete, concrete)
  Prognosis_sul.Adapter.t
  * Quic_client.t
(** The client handle is returned alongside so analyses can inspect
    its property bookkeeping (flow-control violations, NCID sequence
    numbers, ...). *)

val sul :
  ?profile:Quic_profile.t ->
  ?client_config:Quic_client.config ->
  ?network:Prognosis_sul.Network.config ->
  seed:int64 ->
  unit ->
  (Quic_alphabet.symbol, Quic_alphabet.output) Prognosis_sul.Sul.t
(** Learner-facing view ({!Prognosis_sul.Adapter.to_sul}) of a fresh
    adapter: nothing is recorded; use {!create} and
    {!Prognosis_sul.Adapter.query} when synthesis needs the table. *)
