(** The TCP case study pipeline (paper §6.1): learn a model of the TCP
    server, report statistics, and synthesize a register-extended
    machine for the sequence/acknowledgement numbers from the Oracle
    Table (Figure 3(c)). *)

module Alphabet = Prognosis_tcp.Tcp_alphabet

type model = (Alphabet.symbol, Alphabet.output) Prognosis_automata.Mealy.t

type result = {
  model : model;
  report : Report.t;
  adapter :
    ( Alphabet.symbol,
      Alphabet.output,
      Prognosis_tcp.Tcp_wire.segment,
      Prognosis_tcp.Tcp_wire.segment )
    Prognosis_sul.Adapter.t;
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
  ?server_config:Prognosis_tcp.Tcp_server.config ->
  ?exec:Prognosis_exec.Engine.config ->
  ?checkpoint:Prognosis_learner.Checkpoint.spec ->
  unit ->
  result
(** Learns through {!eq_oracle} (W-method + random words) on
    {!Prognosis_exec.Engine.learn}. Without [?exec] the engine is
    sequential: one {!Prognosis_tcp.Tcp_adapter.sul} worker. With
    [?exec], membership queries run through the query-execution engine
    ({!Prognosis_exec.Engine}): a pool of [exec.workers] independent
    adapters (seeds derived by {!Prognosis_sul.Rng.split_n}), batched
    and prefix-sharing; the report then carries an [exec] stats
    section. Learning records nothing: the returned [adapter] (seeded
    with [seed]) is fresh, and its Oracle Table fills only with the
    words {!witness_traces} asks. With [?checkpoint], the run snapshots its query cache (and
    the engine's robustness bookkeeping) into the spec's directory and,
    when the spec says [resume], restarts from the last snapshot — see
    {!Prognosis_learner.Checkpoint}. May raise
    {!Prognosis_learner.Checkpoint.Budget_exhausted} when the spec
    carries a query budget. *)

val input_field_names : string array
(** [seq; ack; len] — the concrete fields synthesis ranges over. *)

val output_field_names : string array
(** [seq; ack]; the server-chosen initial sequence number is left
    unconstrained. *)

val witness_traces :
  result ->
  Alphabet.symbol list list ->
  (Alphabet.symbol, Alphabet.output) Prognosis_synthesis.Ext_mealy.trace list
(** Replay the given abstract words through the adapter and convert the
    Oracle Table records into synthesis traces. *)

val synthesize :
  ?nregs:int ->
  result ->
  Alphabet.symbol list list ->
  ( (Alphabet.symbol, Alphabet.output) Prognosis_synthesis.Ext_mealy.t,
    string )
  Stdlib.result
(** Synthesize register updates and output terms over seq/ack numbers
    from witness traces for the given words. *)

val model_dot : model -> string
