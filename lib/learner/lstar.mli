(** Angluin-style L* for Mealy machines.

    Classic observation-table learning [Angluin 1987] adapted to Mealy
    machines: rows are access words, columns are suffixes (initialized
    to the single-symbol words so the output function is always
    defined), and counterexamples are handled by adding all their
    suffixes to the column set [Shahbaz & Groz 2009], which keeps the
    column set suffix-closed and the table automatically consistent.

    Kept alongside {!Ttt} both as a baseline (the paper's learning
    library, LearnLib, ships both) and as a cross-check in tests: both
    learners must converge to the same minimal machine. *)

type ('i, 'o) state
(** A learning run in progress (exposed for inspection in tests). *)

val create : inputs:'i array -> ('i, 'o) Oracle.membership -> ('i, 'o) state
(** The learner works in position words over [inputs], which may order
    or subset the oracle's alphabet ({!Oracle.over} translates
    positions once).
    @raise Invalid_argument on an empty alphabet or an input outside
    the oracle's alphabet, before the first query. *)

val hypothesis : ('i, 'o) state -> ('i, 'o) Prognosis_automata.Mealy.t
(** Closes the table if needed and builds the current hypothesis. *)

val refine : ('i, 'o) state -> int list -> unit
(** Processes a counterexample position word (a word on which the SUL
    and the current hypothesis disagree). *)

val rows : ('i, 'o) state -> int
val columns : ('i, 'o) state -> int

val learn :
  ?max_rounds:int ->
  ?on_round:(round:int -> states:int -> unit) ->
  inputs:'i array ->
  mq:('i, 'o) Oracle.membership ->
  eq:('i, 'o) Oracle.equivalence ->
  unit ->
  ('i, 'o) Prognosis_automata.Mealy.t * int
(** Full learning loop; returns the final hypothesis and the number of
    equivalence rounds used. [on_round] fires after each hypothesis is
    built, before its equivalence query — the stable point where
    {!Checkpoint} snapshots a run.
    @raise Failure if [max_rounds] (default 100) is exceeded. *)
