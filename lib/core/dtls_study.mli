(** The MiniDTLS study pipeline: the third protocol wired through the
    identical learning stack — the concrete demonstration of the
    paper's claim that "different protocols and protocol
    implementations can easily be swapped without changes to the
    learning engine" (contribution 1). *)

module Alphabet = Prognosis_dtls.Dtls_alphabet

type model = (Alphabet.symbol, Alphabet.output) Prognosis_automata.Mealy.t

type result = {
  model : model;
  report : Report.t;
  adapter :
    ( Alphabet.symbol,
      Alphabet.output,
      Prognosis_dtls.Dtls_wire.record_,
      Prognosis_dtls.Dtls_wire.record_ )
    Prognosis_sul.Adapter.t;
  client : Prognosis_dtls.Dtls_client.t;
}

val eq_oracle :
  (Alphabet.symbol -> 'i) ->
  seed:int64 ->
  ('i, 'o) Prognosis_learner.Oracle.equivalence
(** The study's equivalence oracle at the caller's symbol type:
    [eq_oracle symbol ~seed] maps any scenario words it tests through
    [symbol] ([Fun.id] for the typed study, the alphabet's
    [to_string] for a string-level fleet session). Build one per
    learn: its random sweep draws from an RNG seeded by [seed]. *)

val learn :
  ?seed:int64 ->
  ?algorithm:Prognosis_learner.Learn.algorithm ->
  ?server_config:Prognosis_dtls.Dtls_server.config ->
  ?exec:Prognosis_exec.Engine.config ->
  ?checkpoint:Prognosis_learner.Checkpoint.spec ->
  unit ->
  result
(** Learns through {!eq_oracle} on {!Prognosis_exec.Engine.learn}.
    Without [?exec] the engine is sequential: one
    {!Prognosis_dtls.Dtls_adapter.sul} worker. Learning records
    nothing: the returned [adapter] is fresh, for witness queries
    through {!Prognosis_sul.Adapter.query}. With [?exec], membership queries run through the query-execution
    engine pool and the report carries an [exec] stats section. With
    [?checkpoint], the run snapshots and resumes per the spec; may
    raise {!Prognosis_learner.Checkpoint.Budget_exhausted}. *)

val model_dot : model -> string
