(** Prefix-tree membership-query cache.

    Learner algorithms ask many overlapping queries; because the SUL is
    reset before each query, the answer to any prefix of a cached word
    is also known. The cache stores full observed words in a trie and
    answers any query that is a prefix of a previously executed one
    without touching the SUL.

    Words are position words over the cache's alphabet (see
    {!Prognosis_sul.Sul}), and the trie keys on them directly: chains
    of single-child nodes are collapsed into path-compressed edges, so
    lookups scan int arrays and never hash a symbol. Only {!dump} and
    {!restore} speak symbol words.

    A cache is safe to share across domains: one trie serves every
    fleet session probing the same endpoint. Inserts take a mutex;
    lookups stay lock-free, retried under the mutex only when a
    seqlock generation check shows they overlapped an insert. The hit
    and miss tallies are atomic. *)

type ('i, 'o) t

val create : ?inputs:'i array -> unit -> ('i, 'o) t
(** A cache over the alphabet [inputs]. Without it the first {!wrap}
    fixes the alphabet. *)

val insert : ('i, 'o) t -> int list -> 'o list -> unit
(** Records an executed query and its answer. Conflicting outputs for
    an already-cached prefix raise [Invalid_argument] — that situation
    means the SUL answered nondeterministically. *)

val lookup : ('i, 'o) t -> int list -> 'o list option

val size : ('i, 'o) t -> int
(** Number of logical trie nodes — one per distinct cached non-empty
    prefix, plus the root (an upper bound on distinct cached symbols).
    Unchanged by path compression. *)

val compacted_nodes : ('i, 'o) t -> int
(** Number of physical nodes after path compression, root included
    (exported as the [cache.trie.nodes] gauge). Always ≤ {!size}. *)

val hits : ('i, 'o) t -> int
(** Words answered from the cache by every {!wrap} view of it (exact
    across domains). *)

val misses : ('i, 'o) t -> int

val dump : ('i, 'o) t -> ('i list * 'o list) list
(** The maximal cached words with their outputs — enough to rebuild the
    whole trie with {!restore}, since every cached word is a prefix of
    a maximal one. Order is canonical: depth-first, siblings sorted by
    symbol (polymorphic compare), independent of insertion history and
    of the alphabet's order —
    so [dump]→[restore]→[dump] round-trips byte-identically, including
    for dumps produced by the pre-compaction implementation, whose
    entry type is unchanged but whose hash-table order was arbitrary.
    A cache filled from several domains dumps exactly like one filled
    sequentially with the same words.
    @raise Invalid_argument on a non-empty cache whose alphabet is not
    known. *)

val restore : ('i, 'o) t -> ('i list * 'o list) list -> unit
(** Re-inserts a {!dump}. Restored entries do not count as hits or
    misses; conflicting outputs raise like {!insert}.
    @raise Invalid_argument if the cache's alphabet is not known or
    lacks a symbol. *)

val wrap : ('i, 'o) t -> ('i, 'o) Oracle.membership -> ('i, 'o) Oracle.membership
(** Caching view of a membership oracle over the oracle's alphabet:
    only cache misses reach the underlying oracle (and are counted in
    its statistics). A miss is inserted with its fresh answer, so an
    answer that disagrees with a cached prefix raises the
    [Invalid_argument] of a conflicting {!insert} (nondeterministic
    SUL). If the underlying
    oracle supports [ask_batch], so does the wrapped one: cached words
    are answered up front and only the misses are batched down. Each
    miss is inserted once, by the view, after the underlying oracle
    answers. Any number of views, on any domains, may share one
    cache.
    @raise Invalid_argument if the cache already holds words over
    another alphabet. *)
