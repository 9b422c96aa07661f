(** The System-Under-Learning interface.

    A SUL is anything that can be reset to an initial state and stepped
    one abstract input symbol at a time, producing one abstract output
    symbol. Learners interact with implementations only through this
    interface — the closed-box assumption of the paper.

    A SUL carries its input alphabet and is stepped by position: [step
    i] sends [inputs.(i)]. Every word below the learner is a position
    word, so no layer between the learner and the SUL hashes or
    compares a symbol. *)

type ('i, 'o) t = {
  inputs : 'i array;  (** the input alphabet; [step] takes positions *)
  reset : unit -> unit;
  step : int -> 'o;
  description : string;
}

val make :
  ?description:string ->
  inputs:'i array ->
  reset:(unit -> unit) ->
  step:(int -> 'o) ->
  unit ->
  ('i, 'o) t

val query : ('i, 'o) t -> int list -> 'o list
(** Reset, then feed the whole position word, collecting outputs. *)

val encode : ('i, 'o) t -> 'i list -> int list
(** The position word of a symbol word.
    @raise Invalid_argument on a symbol outside the alphabet. *)

val run : ('i, 'o) t -> 'i list -> 'o list
(** [query] of a symbol word, for analyses and tests. *)

val of_mealy : ('i, 'o) Prognosis_automata.Mealy.t -> ('i, 'o) t
(** Wraps a known machine as a SUL over its alphabet (useful for
    testing learners). *)

val relabel :
  input:('i -> 'j) -> output:('o -> 'p) -> ('i, 'o) t -> ('j, 'p) t
(** The same SUL under new names: the alphabet is mapped once, each
    output is mapped as it is produced. Subjects view their typed SULs
    at the string level this way. *)

val counting : ('i, 'o) t -> ('i, 'o) t * (unit -> int * int)
(** [counting sul] is a wrapper and a function returning
    [(resets, steps)] performed so far. *)
