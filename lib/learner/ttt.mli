(** TTT-style discrimination-tree learning for Mealy machines
    (the paper's learning algorithm, §4.2; Isberner, Howar & Steffen).

    States are leaves of a discrimination tree whose internal nodes are
    labelled with suffix words (discriminators); a state's transitions
    are found by sifting its one-symbol extensions through the tree.
    Counterexamples are decomposed with Rivest–Schapire binary search,
    which both bounds the number of membership queries logarithmically
    in the counterexample length and keeps discriminators short — the
    property that gives TTT its redundancy-free tree. The third T
    (discriminator finalization against the spanning tree) is not
    implemented; suffix minimality is approximated by the
    binary-search decomposition, which in practice yields the same
    compact trees on the protocol alphabets used here. *)

type ('i, 'o) state

val create : inputs:'i array -> ('i, 'o) Oracle.membership -> ('i, 'o) state
(** The learner works in position words over [inputs], which may order
    or subset the oracle's alphabet ({!Oracle.over} translates
    positions once).
    @raise Invalid_argument on an empty alphabet or an input outside
    the oracle's alphabet, before the first query. *)
val hypothesis : ('i, 'o) state -> ('i, 'o) Prognosis_automata.Mealy.t

val refine : ('i, 'o) state -> int list -> bool
(** Processes a counterexample position word; returns false when the
    word did not actually distinguish the SUL from the hypothesis
    (stale counterexample), true when a state was split. *)

val leaves : ('i, 'o) state -> int
(** Current number of discrimination-tree leaves (= hypothesis states). *)

val learn :
  ?max_rounds:int ->
  ?on_round:(round:int -> states:int -> unit) ->
  inputs:'i array ->
  mq:('i, 'o) Oracle.membership ->
  eq:('i, 'o) Oracle.equivalence ->
  unit ->
  ('i, 'o) Prognosis_automata.Mealy.t * int
(** Full learning loop; returns the final hypothesis and the number of
    equivalence rounds. [on_round] fires after each hypothesis is
    built, before its equivalence query — the stable point where
    {!Checkpoint} snapshots a run.
    @raise Failure if [max_rounds] (default 200) is exceeded. *)
