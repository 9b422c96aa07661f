(** The query-execution engine: a batched, prefix-sharing,
    multi-worker SUL pool.

    Prognosis's cost model is membership queries against a live
    implementation (paper §4.1), and learning time is dominated by
    executing them — every query is a reset plus one step per symbol.
    The engine sits between the learner's oracles and the SUL adapters
    and attacks that cost three ways:

    - {b planning} — a batch of pending queries is deduplicated, words
      that are prefixes of longer planned words are answered for free
      from the longer run's per-step outputs, and the surviving maximal
      words are ordered for prefix locality ({!Plan});
    - {b pooling} — N factory-constructed SUL instances execute the
      planned runs, each worker tracking the word it has replayed since
      its last reset so a run extending that word resumes mid-replay
      (the reset and the shared prefix's steps are skipped — their
      outputs come from the engine's cache). Batches optionally run in
      parallel, one OCaml 5 domain per worker, for pure in-process
      substrates;
    - {b robustness} — with [replicas >= 2] every run executes on that
      many distinct workers; disagreement escalates to the whole active
      pool and takes the strict-majority answer (the per-query retry),
      striking outvoted workers. A worker reaching [max_strikes] is
      quarantined — a circuit breaker — and re-admitted after
      [cooldown] further pool runs. No majority raises
      {!Prognosis_sul.Nondet.Nondeterministic_sul}: a pool that cannot
      agree is the paper's §5 nondeterminism diagnosis.

    The engine fronts everything with the standard
    {!Prognosis_learner.Cache}, so {!membership} is a drop-in
    [Oracle.membership] for {!Prognosis_learner.Learn.run_mq}: cache
    misses are exactly the words that reach the pool. The cache is a
    value: private to the engine by default, or shared with the
    engines of other sessions probing the same endpoint. {!learn} is
    the one learning entry point the case studies, subjects and fleet
    sessions share. *)

type config = {
  workers : int;  (** pool size (>= 1) *)
  batch : bool;
      (** advertise [ask_batch] to suite-driven oracles. One worker
          without batching is the sequential oracle: every miss runs
          from reset, with no mid-word resume *)
  parallel : bool;
      (** execute batch runs across domains; forced off while a trace
          sink is installed (the sink is not domain-safe) and ignored
          when [replicas > 1] *)
  replicas : int;  (** full runs per word for cross-validation (>= 1,
                       <= workers) *)
  max_strikes : int;  (** outvoted answers before quarantine *)
  cooldown : int;  (** pool runs a quarantined worker sits out *)
}

val default : config
(** [{ workers = 1; batch = true; parallel = false; replicas = 1;
      max_strikes = 2; cooldown = 256 }] *)

val sequential : config
(** {!default} with [batch = false]: the sequential oracle. It asks
    the SUL exactly the queries [Learn.run]'s direct path asks, each
    from reset. *)

type ('i, 'o) t

val create :
  ?config:config ->
  ?labels:(string * string) list ->
  ?cache:('i, 'o) Prognosis_learner.Cache.t ->
  factory:(int -> ('i, 'o) Prognosis_sul.Sul.t) ->
  unit ->
  ('i, 'o) t
(** [create ~factory ()] builds the pool; [factory i] must return an
    independent SUL instance for worker [i] (give each its own
    {!Prognosis_sul.Rng} stream — see {!Prognosis_sul.Rng.split}).
    [?labels] (default [[]]) is prefixed to every per-worker labelled
    metric ([exec.worker.*]) this engine registers — fleet sessions
    pass [[("session", ..)]] so concurrently live engines keep
    distinct series instead of clobbering each other's gauges.
    [?cache] substitutes an external query cache for the engine's
    fresh one — a checkpoint session's pre-warmed cache
    ({!Prognosis_learner.Checkpoint.cache}) turns a resumed run's
    pre-crash queries into hits that never reach the pool, and a
    fleet's per-endpoint cache is shared by every session's engine.
    @raise Invalid_argument on a non-positive worker count or
    [replicas] outside [1, workers]. *)

val freeze : ('i, 'o) t -> string
(** Snapshot of the pool's robustness bookkeeping (per-worker run
    counts, strikes, quarantines; run/cooldown clock) as an opaque
    blob for {!Prognosis_learner.Checkpoint.set_exec_state}. Worker
    resume positions are not captured: fresh SUL instances start from
    reset. *)

val thaw : ('i, 'o) t -> string -> unit
(** Restore a {!freeze} blob into a pool of the same size.
    @raise Invalid_argument on a foreign blob or a changed pool size. *)

val membership : ('i, 'o) t -> ('i, 'o) Prognosis_learner.Oracle.membership
(** The engine as a membership oracle over its workers' alphabet (the
    first worker's [inputs]; every factory SUL must list the same).
    Batches are planned in the lexicographic order of the words'
    symbols, whatever order the alphabet lists them in. [ask] answers
    one word;
    [ask_batch] (present when [config.batch]) plans and executes a
    whole batch. Answers are observationally identical to a direct
    sequential oracle over one [factory] instance — batching and
    pooling only change cost. The oracle's [stats] count the words
    that reached the pool (= the engine's cache misses). *)

type stats = {
  mutable batches : int;
  mutable planned_words : int;  (** cache-missing words submitted *)
  mutable dedup_hits : int;  (** duplicate words collapsed in batches *)
  mutable prefix_answers : int;
      (** words answered from a longer planned run *)
  mutable runs : int;  (** live SUL executions *)
  mutable resumed : int;  (** runs that skipped the reset via resume *)
  mutable resets : int;
  mutable steps : int;
  mutable baseline_resets : int;
  mutable baseline_steps : int;
      (** cost of the no-reuse sequential oracle on the same query
          stream: one reset plus one step per symbol for every word
          crossing the {!membership} boundary (cache hits included) *)
  mutable disagreements : int;
  mutable vote_runs : int;  (** replica + escalation runs beyond the
                                first run of each voted word *)
  mutable quarantines : int;
}

val stats : ('i, 'o) t -> stats
val oracle_stats : ('i, 'o) t -> Prognosis_learner.Oracle.stats
val config : ('i, 'o) t -> config

val cache_stats : ('i, 'o) t -> int * int
(** (hits, misses) of this engine's {!membership}: misses are the
    words that reached the pool, hits the other words it was asked.
    Exact per engine even over a shared cache, whose own tallies are
    the sums over its engines. Pass to
    {!Prognosis_learner.Learn.run_mq}'s [cache_stats]. *)

val worker_runs : ('i, 'o) t -> int array
(** Per-worker runs executed (utilization). *)

val saved_resets : ('i, 'o) t -> int
val saved_steps : ('i, 'o) t -> int
(** Baseline minus actual, where the baseline is the no-reuse
    sequential oracle (every query executed directly: one reset plus
    one step per symbol). Negative when replication spends more than
    caching and planning save. *)

val quarantined : ('i, 'o) t -> int list
(** Ids of currently quarantined workers. *)

val stats_json : ('i, 'o) t -> Prognosis_obs.Jsonx.t
(** Schema-versioned ["prognosis.exec/1"] object for
    {!Report.to_json}'s [exec] section and the bench snapshot. *)


val seeded_factory :
  (int64 -> 'a) -> seed:int64 -> workers:int -> int -> 'a
(** [seeded_factory make ~seed ~workers] splits [seed] into [workers]
    independent {!Prognosis_sul.Rng} streams and builds worker [i]
    with [make seed_i]. *)

val learn :
  ?config:config ->
  ?labels:(string * string) list ->
  ?cache:('i, 'o) Prognosis_learner.Cache.t ->
  ?checkpoint:('i, 'o) Prognosis_learner.Checkpoint.session ->
  ?algorithm:Prognosis_learner.Learn.algorithm ->
  factory:(workers:int -> int -> ('i, 'o) Prognosis_sul.Sul.t) ->
  inputs:'i array ->
  eq:('i, 'o) Prognosis_learner.Oracle.equivalence ->
  unit ->
  ('i, 'o) Prognosis_learner.Learn.result * ('i, 'o) t
(** The learning entry point: builds the engine over
    [factory ~workers:config.workers] and runs
    {!Prognosis_learner.Learn.run_mq} on its {!membership}, with the
    engine's {!cache_stats}. [config] defaults to {!sequential}, whose
    one worker is [factory ~workers:1 0]: the default learn, every
    [?exec] learn and every fleet session run on factory SULs, which
    record nothing. With [checkpoint], the session's cache replaces
    [cache], a snapshot's engine state is thawed into the pool (a blob
    that does not fit is ignored: only advisory robustness bookkeeping
    is lost) and every later snapshot carries {!freeze}. Returns the
    engine for its stats. *)
