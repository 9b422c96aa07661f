(** Pure batch planner for the query-execution engine.

    Given the words of one batch (already filtered to cache misses by
    the caching layer above the engine), the planner decides which
    words actually need a live SUL run: duplicates collapse, and a word
    that is a prefix of another planned word is answered for free from
    the longer run's per-step outputs. The surviving {e maximal} words
    are ordered to maximize prefix sharing across resets
    (lexicographically, so words sharing a prefix are adjacent and a
    worker can resume instead of restarting). *)

type 'i t = {
  runs : 'i list list;
      (** maximal distinct words, in execution order; executing exactly
          these and caching their per-step outputs answers every word
          of the batch *)
  words : int;  (** words submitted *)
  dupes : int;  (** duplicate occurrences collapsed *)
  subsumed : int;  (** distinct words answered as prefixes of a run *)
  baseline_resets : int;
  baseline_steps : int;
      (** what a sequential cached oracle would have spent executing
          the same batch in arrival order — a plan-level diagnostic;
          the engine's own [saved_*] figures are reported against the
          no-reuse sequential oracle instead *)
}

val build : compare:('i list -> 'i list -> int) -> 'i list list -> 'i t
(** [compare] must be a lexicographic order on words; the engine passes
    its alphabet's symbol order over position words. *)

val is_prefix : 'i list -> 'i list -> bool
(** [is_prefix p w] — is [p] a (non-strict) prefix of [w]? *)
