module Metrics = Prognosis_obs.Metrics

(* Compacted trie over interned symbol ids. Input and output symbols
   are interned once into dense int ids; the trie itself stores
   path-compressed edges — an [int array] of symbol ids with the
   matching output ids alongside — so a chain of single-child nodes
   costs one node and walking it is an int-array scan, not a hashtable
   probe per symbol. Children are kept sorted by first edge symbol id
   for cheap insertion; [dump] re-sorts siblings by the symbols
   themselves so the checkpoint order is canonical.

   One trie is shared by every session probing an endpoint, across
   domains. Inserts take the mutex; lookups run lock-free and
   optimistic. [lookup] and [lookup_longest_prefix] never mutate the
   structure (unknown symbols are a miss, not an interning event), and
   inserts are publication-safe (see [split]), so a racing reader sees
   a stale-but-consistent trie at worst. A seqlock-style generation
   counter (odd while an insert is in flight) rejects even that: a
   lookup that overlapped a write discards its answer and retries
   under the mutex. *)

type node = {
  path : int array; (* compressed edge into this subtree; immutable
                       once the node is reachable (see [split]) *)
  pouts : int array; (* output ids along the edge; same length *)
  mutable kids : node list; (* sorted by [path.(0)]; first ids distinct *)
}

type ('i, 'o) t = {
  sym_ids : ('i, int) Hashtbl.t;
  mutable syms : 'i array; (* id -> input symbol *)
  mutable n_syms : int;
  out_ids : ('o, int) Hashtbl.t;
  mutable outs : 'o array; (* id -> output symbol *)
  mutable n_outs : int;
  root : node;
  mutable prefixes : int; (* distinct cached non-empty prefixes *)
  mutable phys : int; (* physical (compacted) nodes, root included *)
  lock : Mutex.t; (* taken by inserts only *)
  gen : int Atomic.t; (* odd while an insert is in flight *)
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create () =
  {
    sym_ids = Hashtbl.create 16;
    syms = [||];
    n_syms = 0;
    out_ids = Hashtbl.create 16;
    outs = [||];
    n_outs = 0;
    root = { path = [||]; pouts = [||]; kids = [] };
    prefixes = 0;
    phys = 1;
    lock = Mutex.create ();
    gen = Atomic.make 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let intern_sym t x =
  match Hashtbl.find_opt t.sym_ids x with
  | Some id -> id
  | None ->
      let id = t.n_syms in
      let cap = Array.length t.syms in
      if id >= cap then begin
        let a = Array.make (max 8 (2 * cap)) x in
        Array.blit t.syms 0 a 0 t.n_syms;
        t.syms <- a
      end;
      t.syms.(id) <- x;
      t.n_syms <- id + 1;
      Hashtbl.add t.sym_ids x id;
      id

let intern_out t o =
  match Hashtbl.find_opt t.out_ids o with
  | Some id -> id
  | None ->
      let id = t.n_outs in
      let cap = Array.length t.outs in
      if id >= cap then begin
        let a = Array.make (max 8 (2 * cap)) o in
        Array.blit t.outs 0 a 0 t.n_outs;
        t.outs <- a
      end;
      t.outs.(id) <- o;
      t.n_outs <- id + 1;
      Hashtbl.add t.out_ids o id;
      id

let conflict () =
  invalid_arg "Cache.insert: conflicting outputs (nondeterministic SUL?)"

let find_kid kids xi =
  let rec go = function
    | [] -> None
    | k :: rest -> if k.path.(0) = xi then Some k else go rest
  in
  go kids

let insert_sorted kid kids =
  let x = kid.path.(0) in
  let rec go = function
    | [] -> [ kid ]
    | k :: _ as l when x < k.path.(0) -> kid :: l
    | k :: rest -> k :: go rest
  in
  go kids

(* Split [kid]'s edge after its first [j] symbols. Mutation is
   publication-safe for lock-free concurrent readers: a
   reachable node's [path]/[pouts] arrays are never shrunk or
   overwritten in place. Instead a fresh head node (carrying the first
   [j] symbols, with a fresh tail inheriting the rest) replaces [kid]
   in [parent]'s child list with one pointer write, so a racing lookup
   sees either the old consistent node or the new consistent pair —
   never a half-mutated edge. *)
let split t parent kid j =
  let len = Array.length kid.path in
  let tail =
    {
      path = Array.sub kid.path j (len - j);
      pouts = Array.sub kid.pouts j (len - j);
      kids = kid.kids;
    }
  in
  let head =
    {
      path = Array.sub kid.path 0 j;
      pouts = Array.sub kid.pouts 0 j;
      kids = [ tail ];
    }
  in
  parent.kids <- List.map (fun k -> if k == kid then head else k) parent.kids;
  t.phys <- t.phys + 1;
  head

let insert_unlocked t word outputs =
  if List.length word <> List.length outputs then
    invalid_arg "Cache.insert: word/outputs length mismatch";
  let fresh_leaf word outs =
    let ids = Array.of_list (List.map (intern_sym t) word) in
    let oids = Array.of_list (List.map (intern_out t) outs) in
    t.phys <- t.phys + 1;
    t.prefixes <- t.prefixes + Array.length ids;
    { path = ids; pouts = oids; kids = [] }
  in
  let rec at_node node word outs =
    match word with
    | [] -> ()
    | x :: _ -> (
        let xi = intern_sym t x in
        match find_kid node.kids xi with
        | None -> node.kids <- insert_sorted (fresh_leaf word outs) node.kids
        | Some kid -> in_edge node kid 0 word outs)
  and in_edge parent kid j word outs =
    if j = Array.length kid.path then at_node kid word outs
    else
      match (word, outs) with
      | [], [] -> ()
      | x :: word', o :: outs' ->
          let xi = intern_sym t x in
          if xi = kid.path.(j) then begin
            if intern_out t o <> kid.pouts.(j) then conflict ();
            in_edge parent kid (j + 1) word' outs'
          end
          else begin
            (* Diverges mid-edge: split, then branch off the head. *)
            let head = split t parent kid j in
            head.kids <- insert_sorted (fresh_leaf word outs) head.kids
          end
      | _ -> assert false
  in
  at_node t.root word outputs

let insert t word outputs =
  Mutex.lock t.lock;
  Atomic.incr t.gen;
  match insert_unlocked t word outputs with
  | () ->
      Atomic.incr t.gen;
      Mutex.unlock t.lock
  | exception e ->
      Atomic.incr t.gen;
      Mutex.unlock t.lock;
      raise e

let read_locked t f x =
  Mutex.lock t.lock;
  match f t x with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

(* Optimistic read of [f t x]: any overlap with a writer (generation
   odd at the start, or moved by the end, or a torn read raising)
   voids the attempt, which is then repeated under the mutex. *)
let read t f x =
  let g = Atomic.get t.gen in
  if g land 1 = 1 then read_locked t f x
  else
    match f t x with
    | v -> if Atomic.get t.gen = g then v else read_locked t f x
    | exception _ -> read_locked t f x

let sym_id_opt t x = Hashtbl.find_opt t.sym_ids x

let lookup_unlocked t word =
  let rec at_node node word acc =
    match word with
    | [] -> Some (List.rev acc)
    | x :: _ -> (
        match sym_id_opt t x with
        | None -> None
        | Some xi -> (
            match find_kid node.kids xi with
            | None -> None
            | Some kid -> in_edge kid 0 word acc))
  and in_edge kid j word acc =
    if j = Array.length kid.path then at_node kid word acc
    else
      match word with
      | [] -> Some (List.rev acc)
      | x :: word' -> (
          match sym_id_opt t x with
          | Some xi when xi = Array.unsafe_get kid.path j ->
              in_edge kid (j + 1) word' (t.outs.(Array.unsafe_get kid.pouts j) :: acc)
          | _ -> None)
  in
  at_node t.root word []

let lookup t word = read t lookup_unlocked word

let lookup_longest_prefix_unlocked t word =
  let stop acc_in acc_out =
    match acc_in with
    | [] -> None
    | _ -> Some (List.rev acc_in, List.rev acc_out)
  in
  let rec at_node node word acc_in acc_out =
    match word with
    | [] -> stop acc_in acc_out
    | x :: _ -> (
        match sym_id_opt t x with
        | None -> stop acc_in acc_out
        | Some xi -> (
            match find_kid node.kids xi with
            | None -> stop acc_in acc_out
            | Some kid -> in_edge kid 0 word acc_in acc_out))
  and in_edge kid j word acc_in acc_out =
    if j = Array.length kid.path then at_node kid word acc_in acc_out
    else
      match word with
      | [] -> stop acc_in acc_out
      | x :: word' -> (
          match sym_id_opt t x with
          | Some xi when xi = kid.path.(j) ->
              in_edge kid (j + 1) word' (x :: acc_in)
                (t.outs.(kid.pouts.(j)) :: acc_out)
          | _ -> stop acc_in acc_out)
  in
  at_node t.root word [] []

let lookup_longest_prefix t word = read t lookup_longest_prefix_unlocked word

let size t = t.prefixes + 1
let compacted_nodes t = t.phys
let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses

(* Maximal cached words: the trie's leaves. Every inserted word is a
   prefix of some leaf word (insert fills outputs along the whole
   path), so re-inserting the leaves rebuilds the trie exactly.
   Children are sorted, so the order is deterministic for a given
   insertion history. *)
(* Canonical order: depth-first with siblings sorted by their actual
   first symbol, not its interned id — ids depend on insertion history,
   so sorting by id would make the dump of a restored cache differ from
   the dump it was restored from. With symbol-order DFS the dump is a
   function of the cached word set alone, and dump/restore round-trips
   byte-identically even for dumps written by the pre-compaction
   implementation in hash-table order. *)
let dump_unlocked t () =
  let acc = ref [] in
  let rec go node rev_in rev_out =
    match node.kids with
    | [] -> if rev_in <> [] then acc := (List.rev rev_in, List.rev rev_out) :: !acc
    | kids ->
        let kids =
          List.sort
            (fun a b -> compare t.syms.(a.path.(0)) t.syms.(b.path.(0)))
            kids
        in
        List.iter
          (fun k ->
            let ri = ref rev_in and ro = ref rev_out in
            for j = 0 to Array.length k.path - 1 do
              ri := t.syms.(k.path.(j)) :: !ri;
              ro := t.outs.(k.pouts.(j)) :: !ro
            done;
            go k !ri !ro)
          kids
  in
  go t.root [] [];
  List.rev !acc

let dump t = read t dump_unlocked ()

let restore t words = List.iter (fun (w, outs) -> insert t w outs) words

let m_hits = Metrics.counter Metrics.default "cache.hits"
let m_misses = Metrics.counter Metrics.default "cache.misses"
let m_prefix_hits = Metrics.counter Metrics.default "cache.prefix_hits"
let m_prefix_symbols = Metrics.counter Metrics.default "cache.prefix_symbols"
let g_nodes = Metrics.gauge Metrics.default "cache.nodes"
let g_trie_nodes = Metrics.gauge Metrics.default "cache.trie.nodes"

let set_gauges t =
  Metrics.set g_nodes (float_of_int (size t));
  Metrics.set g_trie_nodes (float_of_int t.phys)

let rec split_at n l =
  if n = 0 then ([], l)
  else
    match l with
    | [] -> invalid_arg "Cache.split_at"
    | x :: rest ->
        let a, b = split_at (n - 1) rest in
        (x :: a, b)

let wrap t (mq : ('i, 'o) Oracle.membership) =
  (* On a miss the underlying oracle still replays the full word (a
     plain SUL cannot start mid-run), but when a cached word is a
     prefix of the query the cached per-step outputs stand in for the
     fresh prefix outputs: an engine-backed oracle uses the same cache
     to resume a worker mid-word, and the fresh/cached comparison
     preserves the nondeterminism detection [insert] would perform. *)
  let miss word =
    Atomic.incr t.misses;
    Metrics.inc m_misses;
    let answer =
      match lookup_longest_prefix t word with
      | None -> mq.ask word
      | Some (prefix, cached_outs) ->
          let k = List.length prefix in
          let fresh = mq.ask word in
          let fresh_prefix, fresh_suffix = split_at k fresh in
          if fresh_prefix <> cached_outs then conflict ();
          Metrics.inc m_prefix_hits;
          Metrics.inc ~by:k m_prefix_symbols;
          cached_outs @ fresh_suffix
    in
    insert t word answer;
    set_gauges t;
    answer
  in
  let ask word =
    match lookup t word with
    | Some answer ->
        Atomic.incr t.hits;
        Metrics.inc m_hits;
        answer
    | None -> miss word
  in
  let ask_batch =
    Option.map
      (fun batch words ->
        (* Answer what the cache already knows, send only the misses
           down in one batch, then stitch answers back in order. The
           underlying batch may execute misses in any order, so cached
           answers for the hit words are resolved up front. *)
        let tagged =
          List.map
            (fun word ->
              match lookup t word with
              | Some answer ->
                  Atomic.incr t.hits;
                  Metrics.inc m_hits;
                  Either.Left answer
              | None ->
                  Atomic.incr t.misses;
                  Metrics.inc m_misses;
                  Either.Right word)
            words
        in
        let missing =
          List.filter_map
            (function Either.Right w -> Some w | Either.Left _ -> None)
            tagged
        in
        let answers =
          match missing with
          | [] -> []
          | _ ->
              let answers = batch missing in
              List.iter2 (insert t) missing answers;
              set_gauges t;
              answers
        in
        let rec stitch tagged answers =
          match (tagged, answers) with
          | [], [] -> []
          | Either.Left a :: rest, answers -> a :: stitch rest answers
          | Either.Right _ :: rest, a :: answers -> a :: stitch rest answers
          | _ -> invalid_arg "Cache.wrap: batch answer count mismatch"
        in
        stitch tagged answers)
      mq.Oracle.ask_batch
  in
  { mq with Oracle.ask; ask_batch }
