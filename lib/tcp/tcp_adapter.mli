(** The complete TCP System Under Learning: reference client +
    simulated network + target server, packaged as an Adapter the
    learning module can drive (paper Figure 2).

    One abstract step concretizes the symbol through the reference
    client, encodes it to the wire, transmits it over the (possibly
    faulty) channel, lets the server process the bytes, delivers the
    responses back through the channel, absorbs them into the client
    state and abstracts them for the learner. The exchanges of words
    asked through {!Prognosis_sul.Adapter.query} are recorded in the
    Oracle Table for later synthesis. *)

type concrete = Tcp_wire.segment

val create :
  ?server_config:Tcp_server.config ->
  ?network:Prognosis_sul.Network.config ->
  seed:int64 ->
  unit ->
  (Tcp_alphabet.symbol, Tcp_alphabet.output, concrete, concrete) Prognosis_sul.Adapter.t

val sul :
  ?server_config:Tcp_server.config ->
  ?network:Prognosis_sul.Network.config ->
  seed:int64 ->
  unit ->
  (Tcp_alphabet.symbol, Tcp_alphabet.output) Prognosis_sul.Sul.t
(** Learner-facing view ({!Prognosis_sul.Adapter.to_sul}) of a fresh
    adapter: nothing is recorded; use {!create} and
    {!Prognosis_sul.Adapter.query} when synthesis needs the table. *)
