module Metrics = Prognosis_obs.Metrics

(* Compacted trie over position words. Words arrive as alphabet
   positions, so the trie keys its edges on them directly: a
   path-compressed edge is an [int array] of positions with the
   matching outputs alongside, a chain of single-child nodes costs one
   node, and walking it is an int-array scan. An output is interned
   only when an edge is created, so the trie keeps one value per
   distinct output; an overlapping insert compares against the stored
   value, and lookups never hash. Children are kept sorted by first
   edge position for cheap insertion; [dump] re-sorts siblings by the
   symbols themselves so the checkpoint order is canonical.

   One trie is shared by every session probing an endpoint, across
   domains. Inserts take the mutex; lookups run lock-free and
   optimistic. [lookup] never mutates the structure, and inserts are
   publication-safe (see [split]), so a racing reader sees a
   stale-but-consistent trie at worst. A seqlock-style generation
   counter (odd while an insert is in flight) rejects even that: a
   lookup that overlapped a write discards its answer and retries
   under the mutex. *)

type 'o node = {
  path : int array; (* compressed edge into this subtree; immutable
                       once the node is reachable (see [split]) *)
  pouts : 'o array; (* outputs along the edge; same length *)
  mutable kids : 'o node list; (* sorted by [path.(0)]; first positions
                                  distinct *)
}

type ('i, 'o) t = {
  mutable alphabet : 'i array; (* [||] until the first view or restore *)
  outs : ('o, 'o) Hashtbl.t; (* each distinct output, once; inserts only *)
  root : 'o node;
  mutable prefixes : int; (* distinct cached non-empty prefixes *)
  mutable phys : int; (* physical (compacted) nodes, root included *)
  lock : Mutex.t; (* taken by inserts only *)
  gen : int Atomic.t; (* odd while an insert is in flight *)
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ?(inputs = [||]) () =
  {
    alphabet = inputs;
    outs = Hashtbl.create 16;
    root = { path = [||]; pouts = [||]; kids = [] };
    prefixes = 0;
    phys = 1;
    lock = Mutex.create ();
    gen = Atomic.make 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

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
  let intern o =
    match Hashtbl.find_opt t.outs o with
    | Some o -> o
    | None ->
        Hashtbl.add t.outs o o;
        o
  in
  let fresh_leaf word outs =
    let path = Array.of_list word in
    t.phys <- t.phys + 1;
    t.prefixes <- t.prefixes + Array.length path;
    { path; pouts = Array.of_list (List.map intern outs); kids = [] }
  in
  let rec at_node node word outs =
    match word with
    | [] -> ()
    | x :: _ -> (
        match find_kid node.kids x with
        | None -> node.kids <- insert_sorted (fresh_leaf word outs) node.kids
        | Some kid -> in_edge node kid 0 word outs)
  and in_edge parent kid j word outs =
    if j = Array.length kid.path then at_node kid word outs
    else
      match (word, outs) with
      | [], [] -> ()
      | x :: word', o :: outs' ->
          if x = kid.path.(j) then begin
            let stored = kid.pouts.(j) in
            if not (o == stored || o = stored) then conflict ();
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

let lookup_unlocked t word =
  let rec at_node node word acc =
    match word with
    | [] -> Some (List.rev acc)
    | x :: _ -> (
        match find_kid node.kids x with
        | None -> None
        | Some kid -> in_edge kid 0 word acc)
  and in_edge kid j word acc =
    if j = Array.length kid.path then at_node kid word acc
    else
      match word with
      | [] -> Some (List.rev acc)
      | x :: word' ->
          if x = Array.unsafe_get kid.path j then
            in_edge kid (j + 1) word' (Array.unsafe_get kid.pouts j :: acc)
          else None
  in
  at_node t.root word []

let lookup t word = read t lookup_unlocked word

let size t = t.prefixes + 1
let compacted_nodes t = t.phys
let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses

(* Maximal cached words: the trie's leaves. Every inserted word is a
   prefix of some leaf word (insert fills outputs along the whole
   path), so re-inserting the leaves rebuilds the trie exactly.
   Canonical order: depth-first with siblings sorted by their symbols,
   not their positions, so the dump is a function of the cached word
   set alone — independent of insertion history and of the order the
   alphabet lists its symbols — and dump/restore round-trips
   byte-identically, also for dumps written by the hash-table
   implementation in arbitrary order. *)
let known_alphabet fn t =
  if Array.length t.alphabet = 0 then
    invalid_arg (fn ^ ": the cache's alphabet is not known yet");
  t.alphabet

let dump_unlocked t () =
  let syms =
    match t.root.kids with [] -> [||] | _ -> known_alphabet "Cache.dump" t
  in
  let acc = ref [] in
  let rec go node rev_in rev_out =
    match node.kids with
    | [] -> if rev_in <> [] then acc := (List.rev rev_in, List.rev rev_out) :: !acc
    | kids ->
        let kids =
          List.sort
            (fun a b -> compare syms.(a.path.(0)) syms.(b.path.(0)))
            kids
        in
        List.iter
          (fun k ->
            let ri = ref rev_in and ro = ref rev_out in
            for j = 0 to Array.length k.path - 1 do
              ri := syms.(k.path.(j)) :: !ri;
              ro := k.pouts.(j) :: !ro
            done;
            go k !ri !ro)
          kids
  in
  go t.root [] [];
  List.rev !acc

let dump t = read t dump_unlocked ()

let restore t words =
  let syms =
    match words with [] -> [||] | _ -> known_alphabet "Cache.restore" t
  in
  let position x =
    try Prognosis_automata.Mealy.position syms x
    with Not_found ->
      invalid_arg "Cache.restore: a symbol is not in the cache's alphabet"
  in
  List.iter (fun (w, outs) -> insert t (List.map position w) outs) words

(* A view fixes the alphabet of a cache created without one; every
   later view must ask over the same alphabet. *)
let adopt t inputs =
  Mutex.lock t.lock;
  let ok =
    if Array.length t.alphabet = 0 then begin
      t.alphabet <- inputs;
      true
    end
    else t.alphabet == inputs || t.alphabet = inputs
  in
  Mutex.unlock t.lock;
  if not ok then
    invalid_arg "Cache.wrap: the cache holds words over another alphabet"

let m_hits = Metrics.counter Metrics.default "cache.hits"
let m_misses = Metrics.counter Metrics.default "cache.misses"
let g_nodes = Metrics.gauge Metrics.default "cache.nodes"
let g_trie_nodes = Metrics.gauge Metrics.default "cache.trie.nodes"

let set_gauges t =
  Metrics.set g_nodes (float_of_int (size t));
  Metrics.set g_trie_nodes (float_of_int t.phys)

let wrap t (mq : ('i, 'o) Oracle.membership) =
  adopt t mq.Oracle.inputs;
  (* A miss replays the whole word (a plain SUL cannot start mid-run);
     [insert] compares the fresh answer with every cached prefix on
     its way down, so a nondeterministic SUL still raises. *)
  let miss word =
    Atomic.incr t.misses;
    Metrics.inc m_misses;
    let answer = mq.ask word in
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
