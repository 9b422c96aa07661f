(** High-level learning driver: wires a SUL, a caching membership
    oracle, an equivalence oracle and a learning algorithm into one
    call, returning the model together with the statistics the paper's
    evaluation reports (states, transitions, membership queries,
    rounds). *)

type algorithm = L_star | Ttt_tree

type ('i, 'o) result = {
  model : ('i, 'o) Prognosis_automata.Mealy.t;
  rounds : int;  (** equivalence rounds (hypotheses built) *)
  stats : Oracle.stats;
  cache_hits : int;
  cache_misses : int;
}

val run :
  ?algorithm:algorithm ->
  ?max_rounds:int ->
  inputs:'i array ->
  sul:('i, 'o) Prognosis_sul.Sul.t ->
  eq:('i, 'o) Oracle.equivalence ->
  unit ->
  ('i, 'o) result
(** Learns a model of [sul]: {!run_mq} over
    [Cache.wrap (Cache.create ()) (Oracle.of_sul sul)]. Defaults: TTT,
    200 rounds. Statistics count the queries that actually reached
    the SUL, which equal the cache misses; hits are reported
    separately. The case studies learn through
    [Prognosis_exec.Engine.learn] instead, whose sequential default
    asks the same queries. *)

val run_mq :
  ?algorithm:algorithm ->
  ?max_rounds:int ->
  ?cache_stats:(unit -> int * int) ->
  ?checkpoint:('i, 'o) Checkpoint.session ->
  inputs:'i array ->
  mq:('i, 'o) Oracle.membership ->
  eq:('i, 'o) Oracle.equivalence ->
  unit ->
  ('i, 'o) result
(** The learning driver, over a prebuilt membership oracle (no extra
    caching). When [mq] carries its own cache (the query-execution
    engine does), pass [cache_stats] returning its (hits, misses) so
    the result and the [learn.cache_hit_rate] gauge reflect it. The
    whole run executes inside a ["learn"] span when
    {!Prognosis_obs.Trace} has a sink. With [?checkpoint],
    [mq] must answer from the session's cache so snapshots see every
    answered query ([Prognosis_exec.Engine.learn ~checkpoint] builds
    its engine over that cache). *)
