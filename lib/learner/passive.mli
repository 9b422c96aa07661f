(** Passive model learning from logged traces.

    The paper's future-work section (§8) proposes speeding up active
    learning with passive learning over logs, "to avoid resorting to so
    many expensive queries". This module provides the two standard
    pieces:

    {ul
    {- a prefix-tree acceptor ({!pta}) and an RPNI-style state-merging
       learner ({!rpni}) adapted to Mealy machines: states are merged in
       breadth-first order whenever their observed outputs are
       compatible, folding the remainder of the tree deterministically;}
    {- cache preloading ({!preload}): logged traces are inserted into
       the active learner's membership cache, so queries already
       answered by the logs never reach the implementation — the
       passive/active hybrid measured by the benchmark ablations.}}

    Passive learning alone gives no correctness guarantee (the sample
    may under-approximate the behaviour); the hybrid keeps the active
    learner's guarantees while spending fewer live queries. *)

type ('i, 'o) sample = ('i list * 'o list) list
(** Observed queries: input word paired with the output word of equal
    length. *)

val sample_of_words :
  ('i, 'o) Prognosis_sul.Sul.t -> 'i list list -> ('i, 'o) sample
(** Execute words against a SUL to build a sample (a stand-in for
    reading logs). *)

val random_sample :
  rng:Prognosis_sul.Rng.t ->
  inputs:'i array ->
  words:int ->
  max_len:int ->
  ('i, 'o) Prognosis_sul.Sul.t ->
  ('i, 'o) sample

val pta :
  inputs:'i array -> default:'o -> ('i, 'o) sample -> ('i, 'o) Prognosis_automata.Mealy.t
(** The prefix-tree machine of the sample, completed into a total
    machine: unobserved transitions self-loop with the [default]
    output.
    @raise Invalid_argument on inconsistent samples (same input word,
    different outputs). *)

val rpni :
  inputs:'i array -> default:'o -> ('i, 'o) sample -> ('i, 'o) Prognosis_automata.Mealy.t
(** State-merged generalization of {!pta}: merges are attempted in
    canonical (breadth-first) order and kept when no observed output
    conflicts. The result is always consistent with the sample. *)

val consistent :
  ('i, 'o) Prognosis_automata.Mealy.t -> ('i, 'o) sample -> bool
(** Does the machine reproduce every trace of the sample? *)

val preload : ('i, 'o) Cache.t -> ('i, 'o) sample -> unit
(** Insert logged traces into a membership cache (the hybrid of §8).
    The cache must know its alphabet ({!Cache.create} [~inputs]). *)
