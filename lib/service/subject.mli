(** Identifiable / learnable protocol subjects.

    A subject names one live endpoint configuration the toolchain can
    both probe (an {!Prognosis_exec.Engine} worker factory over the
    string-level SUL view) and learn in full, through its case study
    or, at the string level, through {!Prognosis_exec.Engine.learn}
    with the study's equivalence oracle.
    This used to live inside the CLI; the fleet scheduler
    ({!Service}) needs it as a library, and the CLI now reuses it. *)

type t = {
  name : string;  (** e.g. ["tcp:no-challenge"] or ["quic:quiche-like"] *)
  kind : Prognosis.Persist.kind;
  inputs : string array;
      (** string input alphabet, in study order — the alphabet
          {!Prognosis_learner.Learn.run_mq} learns over when driving
          the subject through {!factory} workers *)
  factory :
    seed:int64 -> workers:int -> int -> (string, string) Prognosis_sul.Sul.t;
      (** [factory ~seed ~workers i] is worker [i]'s independent SUL
          instance (per-worker RNG streams split from [seed] by
          {!Prognosis_exec.Engine.seeded_factory}) *)
  eq : seed:int64 -> (string, string) Prognosis_learner.Oracle.equivalence;
      (** the case study's own equivalence oracle at the string level
          (DTLS's includes its handshake scenarios), fresh per learn *)
  learn :
    seed:int64 ->
    algorithm:Prognosis_learner.Learn.algorithm ->
    exec:Prognosis_exec.Engine.config option ->
    (string, string) Prognosis_automata.Mealy.t * Prognosis.Report.t;
      (** full typed-study learning run, returning the canonical
          string-rendered model plus its report *)
}

val names : string list
(** The accepted {!of_name} spellings (["quic:<profile>"] standing
    for any {!Prognosis_quic.Quic_profile} name). *)

val of_name : string -> (t, string) result

val profile_of_name :
  string -> (Prognosis_quic.Quic_profile.t, string) result
