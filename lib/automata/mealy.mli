(** Deterministic, complete Mealy machines.

    States are integers [0 .. size-1]; the input alphabet is an explicit
    array of symbols. All machines handled by Prognosis are total: every
    state has a transition for every input symbol.

    Two word forms coexist. A {e symbol word} (['i list]) is what
    analyses, the CLI and tests write; {!run}, {!run_from},
    {!state_after} and {!equivalent} take or return one. A {e position
    word} ([int list]) names each input by its index in {!inputs}; the
    learner, the caches, test-suite generation and identification
    work only in positions, so no step hashes or compares a symbol.
    {!encode} and {!decode} convert between the two.

    Machines carry a lazily-built {e packed} form (see {!Packed}): flat
    int transition/output tables with O(1) array-indexed stepping. The
    word-running entry points ({!run}, {!run_from}, {!state_after}),
    product-BFS comparisons ({!equivalent}, {!distinguishing_word}) and
    {!characterizing_set} all execute on the packed form; it is memoized
    per machine, so the compilation cost is paid once. *)

type ('i, 'o) packed
(** The compiled form of a machine; see {!Packed}. *)

type ('i, 'o) t = private {
  size : int;  (** number of states *)
  initial : int;  (** initial state, in [0, size) *)
  inputs : 'i array;  (** the input alphabet *)
  delta : int array array;  (** [delta.(s).(i)] = successor state *)
  lambda : 'o array array;  (** [lambda.(s).(i)] = output symbol *)
  packed_ : ('i, 'o) packed option Atomic.t;
      (** memoized packed form; managed by {!Packed.pack} *)
}

val make :
  size:int ->
  initial:int ->
  inputs:'i array ->
  delta:int array array ->
  lambda:'o array array ->
  ('i, 'o) t
(** Builds a machine, checking that [delta]/[lambda] are [size]×[inputs]
    matrices and all successors lie in [0, size).
    @raise Invalid_argument on a malformed machine. *)

val of_fun :
  size:int ->
  initial:int ->
  inputs:'i array ->
  step:(int -> 'i -> int * 'o) ->
  ('i, 'o) t
(** Tabulates [step] over all states and inputs. *)

val size : ('i, 'o) t -> int
val initial : ('i, 'o) t -> int
val inputs : ('i, 'o) t -> 'i array
val alphabet_size : ('i, 'o) t -> int

val transitions : ('i, 'o) t -> int
(** Total number of transitions, i.e. [size * alphabet_size]. *)

val position : 'i array -> 'i -> int
(** [position inputs x] is the index of [x] in [inputs] (linear scan,
    structural equality).
    @raise Not_found if [x] is not in [inputs]. *)

val input_index : ('i, 'o) t -> 'i -> int
(** Position of a symbol in the input alphabet.
    @raise Not_found if the symbol is not in the alphabet. *)

val step_idx : ('i, 'o) t -> int -> int -> int * 'o
(** [step_idx m s i] follows the transition for the [i]-th alphabet
    symbol from state [s]. *)

val step : ('i, 'o) t -> int -> 'i -> int * 'o

val encode : ('i, 'o) t -> 'i list -> int list
(** The position word of a symbol word (linear alphabet scan).
    @raise Not_found if a symbol is not in the alphabet. *)

val decode : ('i, 'o) t -> int list -> 'i list
(** The symbol word of a position word. *)

val run : ('i, 'o) t -> 'i list -> 'o list
(** Output word produced from the initial state: {!encode}, then the
    memoized packed form ({!Packed}).
    @raise Not_found if a symbol is not in the alphabet. *)

val run_from : ('i, 'o) t -> int -> 'i list -> 'o list
val state_after : ('i, 'o) t -> 'i list -> int

val run_reference : ('i, 'o) t -> 'i list -> 'o list
(** Functional reference stepping over the unpacked matrices (linear
    alphabet scan per symbol, no interning). Semantically identical to
    {!run}; kept as the differential baseline for the packed-vs-
    functional property test and the A9 bench ablation. *)

val run_reference_from : ('i, 'o) t -> int -> 'i list -> 'o list

(** Packed (compiled) machines: transitions and outputs frozen into
    flat int arrays indexed by [(state * alphabet_size) + position],
    with outputs interned into a dense table. Words are position words,
    so stepping is two array loads — no hashing, no per-step
    allocation, no polymorphic comparison. Build
    cost is O(size × alphabet); {!Packed.pack} memoizes the result on
    the machine record.

    Packing is domain-safe: the memo is published with
    [Atomic.compare_and_set], so domains racing to pack one machine
    all get the physically same packed value. A packed value itself is
    immutable and safe to read concurrently. *)
module Packed : sig
  type ('i, 'o) machine = ('i, 'o) t
  type nonrec ('i, 'o) t = ('i, 'o) packed

  val pack : ('i, 'o) machine -> ('i, 'o) t
  (** Compile (memoized — subsequent calls are one atomic read; safe to
      race across domains). *)

  val size : ('i, 'o) t -> int
  val initial : ('i, 'o) t -> int
  val alphabet_size : ('i, 'o) t -> int

  val output_count : ('i, 'o) t -> int
  (** Number of distinct output symbols (size of the intern table). *)

  val next : ('i, 'o) t -> int -> int -> int
  (** [next p s i] is the successor of state [s] on the [i]-th symbol. *)

  val out_id : ('i, 'o) t -> int -> int -> int
  (** [out_id p s i] is the interned output id of that transition. *)

  val output : ('i, 'o) t -> int -> 'o
  (** Resolve an interned output id to its symbol. *)

  val run : ('i, 'o) t -> int list -> 'o list
  (** Output word of a position word from the initial state. *)

  val run_from : ('i, 'o) t -> int -> int list -> 'o list
  val state_after : ('i, 'o) t -> int list -> int
  val state_after_from : ('i, 'o) t -> int -> int list -> int

  val run_ids : ('i, 'o) t -> int -> int array -> int array
  (** [run_ids p s word] steps a position word given as an array from
      state [s], returning interned output ids. *)
end

val pack : ('i, 'o) t -> ('i, 'o) packed
(** Alias for {!Packed.pack}. *)

val reachable : ('i, 'o) t -> bool array
(** [reachable m] marks states reachable from the initial state. *)

val trim : ('i, 'o) t -> ('i, 'o) t
(** Restriction to reachable states (initial state preserved). *)

val minimize : ('i, 'o) t -> ('i, 'o) t
(** Canonical minimal machine (Moore-style partition refinement),
    restricted to reachable states. *)

val canonicalize : ('i, 'o) t -> ('i, 'o) t
(** BFS state renumbering: states are renumbered in breadth-first
    discovery order from the initial state (inputs explored in alphabet
    order), unreachable states dropped, so the initial state is 0.
    Isomorphic machines over the same alphabet canonicalize to
    structurally equal machines; compose with {!minimize} to map every
    machine of an equivalence class to one literal representative
    ([canonicalize (minimize m)]) — the normal form behind the
    byte-identical [prognosis.model/1] serialization. *)

val equivalent : ('i, 'o) t -> ('i, 'o) t -> 'i list option
(** [equivalent a b] is [None] when the machines have the same
    input/output behaviour, or [Some w] with [w] a shortest-by-BFS input
    word on which their outputs differ. Both machines must share the
    same input alphabet (compared by structural equality, order
    included). Runs as a product BFS over the packed transition tables;
    the BFS order (FIFO, inputs in alphabet order) is fixed, so the
    witness word is deterministic.
    @raise Invalid_argument if the alphabets differ. *)

val access_words : ('i, 'o) t -> int list array
(** BFS access position word for each state; unreachable states map to
    the empty word (use {!reachable} to tell them apart from the
    initial state). *)

val characterizing_set : ('i, 'o) t -> int list list
(** A set of position words separating every pair of inequivalent
    states (used by W-method test generation). Never empty for machines
    with more than one state; contains the empty word only as a
    fallback for one-state machines. *)

val distinguishing_word : ('i, 'o) t -> int -> int -> int list option
(** Shortest position word on which two states of the same machine
    produce different outputs, if any. *)

val count_words : alphabet:int -> max_len:int -> int
(** Number of nonempty input words of length ≤ [max_len] over an
    alphabet of size [alphabet]: Σ_{k=1..max_len} alphabet^k. *)

val to_dot :
  ?name:string ->
  input_pp:(Format.formatter -> 'i -> unit) ->
  output_pp:(Format.formatter -> 'o -> unit) ->
  ('i, 'o) t ->
  string
(** Graphviz rendering. Transitions with identical endpoints are merged
    into a single multi-line edge label. *)

val map_outputs : ('o -> 'p) -> ('i, 'o) t -> ('i, 'p) t
