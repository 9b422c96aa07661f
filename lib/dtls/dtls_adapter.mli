(** The MiniDTLS System Under Learning: reference client + simulated
    network + server, as an Adapter — the third protocol wired through
    the identical framework machinery, demonstrating the paper's
    modularity claim (swapping protocols without touching the learning
    engine). *)

type concrete = Dtls_wire.record_

val create :
  ?server_config:Dtls_server.config ->
  ?network:Prognosis_sul.Network.config ->
  seed:int64 ->
  unit ->
  (Dtls_alphabet.symbol, Dtls_alphabet.output, concrete, concrete)
  Prognosis_sul.Adapter.t
  * Dtls_client.t

val sul :
  ?server_config:Dtls_server.config ->
  ?network:Prognosis_sul.Network.config ->
  seed:int64 ->
  unit ->
  (Dtls_alphabet.symbol, Dtls_alphabet.output) Prognosis_sul.Sul.t
(** Learner-facing view ({!Prognosis_sul.Adapter.to_sul}) of a fresh
    adapter: nothing is recorded; use {!create} and
    {!Prognosis_sul.Adapter.query} when synthesis needs the table. *)
