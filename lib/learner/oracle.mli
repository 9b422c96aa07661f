(** Query oracles for the Minimally Adequate Teacher framework
    (paper §4.1).

    A membership oracle answers "if I send this input word, what does
    the implementation return?"; an equivalence oracle searches for a
    word on which a hypothesis machine and the implementation disagree.
    Both carry statistics so experiments can report query counts as the
    paper does.

    A membership oracle carries its input alphabet and is asked
    position words (see {!Prognosis_sul.Sul}): the learner, its caches
    and the equivalence suites never hash a symbol. *)

type stats = {
  mutable membership_queries : int;
  mutable membership_symbols : int;
  mutable equivalence_queries : int;
  mutable test_words : int;  (** words executed by equivalence testing *)
}

val fresh_stats : unit -> stats

type ('i, 'o) membership = {
  inputs : 'i array;  (** the alphabet the position words index *)
  ask : int list -> 'o list;
  ask_batch : (int list list -> 'o list list) option;
      (** Optional bulk entry point: answers a whole list of words in
          one call, one answer per word, in order. Oracles that can
          plan query execution (the {!Prognosis_exec} engine) expose
          it; consumers must treat [None] as "ask one word at a time".
          Semantically [ask_batch ws = List.map ask ws] — batching may
          only change cost, never answers. *)
  stats : stats;
}

val of_fun :
  ?stats:stats ->
  ?batch:(int list list -> 'o list list) ->
  inputs:'i array ->
  (int list -> 'o list) ->
  ('i, 'o) membership
(** Wraps a raw query function, counting queries and symbols. When
    [batch] is given it becomes the oracle's [ask_batch], with every
    batched word counted exactly like a single query. *)

val of_sul : ?stats:stats -> ('i, 'o) Prognosis_sul.Sul.t -> ('i, 'o) membership
(** Over the SUL's alphabet. *)

val of_sul_checked :
  ?stats:stats ->
  ?config:Prognosis_sul.Nondet.config ->
  pp:('i list -> string) ->
  ('i, 'o) Prognosis_sul.Sul.t ->
  ('i, 'o) membership
(** Membership oracle guarded by the nondeterminism check: every query
    is executed repeatedly per the config and must reach the agreement
    threshold.
    @raise Prognosis_sul.Nondet.Nondeterministic_sul otherwise. *)

val over : inputs:'i array -> ('i, 'o) membership -> ('i, 'o) membership
(** [over ~inputs mq] asks [mq] position words over [inputs], which
    may order or subset [mq]'s alphabet differently: positions are
    translated through a map built once. [mq] itself when the alphabets
    are equal. Statistics are shared.
    @raise Invalid_argument if an input is not in [mq]'s alphabet. *)

val same_answer : 'o list -> 'o list -> bool
(** Structural equality of two answers, each output checked for
    physical equality first. *)

type ('i, 'o) equivalence =
  ('i, 'o) membership -> ('i, 'o) Prognosis_automata.Mealy.t -> int list option
(** [eq mq hypothesis] is [Some w] for a counterexample position word
    [w] on which the SUL (via [mq]) and the hypothesis disagree, or
    [None] if the heuristic search finds no difference. The hypothesis
    has [mq]'s alphabet, so [w] indexes both. *)
