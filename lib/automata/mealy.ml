module Metrics = Prognosis_obs.Metrics

(* [packed] is the compiled form of a machine: transitions and outputs
   flattened into int arrays ([(s * alpha) + i] indexing), outputs
   interned into a dense table. Stepping is two array loads — no
   per-step allocation, no polymorphic comparison. The form is memoized
   on the machine record ([t.packed_]) so every hot path that replays
   words over the same machine (equivalence suites, product BFS, test
   generation) pays the O(size × alpha) compilation once. The memo is
   an [Atomic] cell, so domains may race to pack one machine. *)
type ('i, 'o) t = {
  size : int;
  initial : int;
  inputs : 'i array;
  delta : int array array;
  lambda : 'o array array;
  packed_ : ('i, 'o) packed option Atomic.t;
}

and ('i, 'o) packed = {
  p_size : int;
  p_initial : int;
  p_alpha : int;
  p_next : int array; (* state transition: p_next.((s * p_alpha) + i) *)
  p_out : int array; (* output id per (state, input) pair *)
  p_outputs : 'o array; (* interned output table, id -> symbol *)
  p_inputs : 'i array;
  p_index : ('i, int) Hashtbl.t; (* input symbol -> alphabet position *)
}

let m_packed_steps = Metrics.counter Metrics.default "packed.steps"
let m_packs = Metrics.counter Metrics.default "packed.machines"

let make ~size ~initial ~inputs ~delta ~lambda =
  let n_inputs = Array.length inputs in
  if size <= 0 then invalid_arg "Mealy.make: size must be positive";
  if initial < 0 || initial >= size then invalid_arg "Mealy.make: bad initial state";
  if n_inputs = 0 then invalid_arg "Mealy.make: empty alphabet";
  if Array.length delta <> size || Array.length lambda <> size then
    invalid_arg "Mealy.make: delta/lambda must have one row per state";
  Array.iter
    (fun row ->
      if Array.length row <> n_inputs then
        invalid_arg "Mealy.make: delta row width mismatch";
      Array.iter
        (fun s ->
          if s < 0 || s >= size then invalid_arg "Mealy.make: successor out of range")
        row)
    delta;
  Array.iter
    (fun row ->
      if Array.length row <> n_inputs then
        invalid_arg "Mealy.make: lambda row width mismatch")
    lambda;
  { size; initial; inputs; delta; lambda; packed_ = Atomic.make None }

let of_fun ~size ~initial ~inputs ~step =
  let n = Array.length inputs in
  let delta = Array.init size (fun _ -> Array.make n 0) in
  let lambda =
    Array.init size (fun s -> Array.init n (fun i -> snd (step s inputs.(i))))
  in
  for s = 0 to size - 1 do
    for i = 0 to n - 1 do
      delta.(s).(i) <- fst (step s inputs.(i))
    done
  done;
  make ~size ~initial ~inputs ~delta ~lambda

let size m = m.size
let initial m = m.initial
let inputs m = m.inputs
let alphabet_size m = Array.length m.inputs
let transitions m = m.size * alphabet_size m

let input_index m x =
  let n = Array.length m.inputs in
  let rec loop i =
    if i >= n then raise Not_found
    else if m.inputs.(i) = x then i
    else loop (i + 1)
  in
  loop 0

let step_idx m s i = (m.delta.(s).(i), m.lambda.(s).(i))
let step m s x = step_idx m s (input_index m x)

(* --- the compiled hot path --- *)

module Packed = struct
  type ('i, 'o) machine = ('i, 'o) t
  type nonrec ('i, 'o) t = ('i, 'o) packed

  let build m =
    let n = Array.length m.inputs in
    let next = Array.make (m.size * n) 0 in
    let out = Array.make (m.size * n) 0 in
    let out_ids = Hashtbl.create 16 in
    let out_list = ref [] in
    let n_outs = ref 0 in
    let intern o =
      match Hashtbl.find_opt out_ids o with
      | Some id -> id
      | None ->
          let id = !n_outs in
          Hashtbl.add out_ids o id;
          out_list := o :: !out_list;
          incr n_outs;
          id
    in
    for s = 0 to m.size - 1 do
      let base = s * n in
      let drow = m.delta.(s) and lrow = m.lambda.(s) in
      for i = 0 to n - 1 do
        next.(base + i) <- drow.(i);
        out.(base + i) <- intern lrow.(i)
      done
    done;
    let outputs = Array.of_list (List.rev !out_list) in
    let index = Hashtbl.create (2 * n) in
    Array.iteri (fun i x -> if not (Hashtbl.mem index x) then Hashtbl.add index x i) m.inputs;
    Metrics.inc m_packs;
    {
      p_size = m.size;
      p_initial = m.initial;
      p_alpha = n;
      p_next = next;
      p_out = out;
      p_outputs = outputs;
      p_inputs = m.inputs;
      p_index = index;
    }

  (* Memoized: repeated packs of the same machine are one atomic read.
     Racing first packs each build, one publishes, and the others
     adopt the published value, so every caller gets the same one. *)
  let pack m =
    match Atomic.get m.packed_ with
    | Some p -> p
    | None ->
        let p = build m in
        if Atomic.compare_and_set m.packed_ None (Some p) then p
        else Option.get (Atomic.get m.packed_)

  let size p = p.p_size
  let initial p = p.p_initial
  let alphabet_size p = p.p_alpha
  let output_count p = Array.length p.p_outputs
  let next p s i = Array.unsafe_get p.p_next ((s * p.p_alpha) + i)
  let out_id p s i = Array.unsafe_get p.p_out ((s * p.p_alpha) + i)
  let output p id = p.p_outputs.(id)
  let input_index p x = Hashtbl.find_opt p.p_index x

  let run_from p s0 word =
    let s = ref s0 and n = ref 0 in
    let outs =
      List.map
        (fun x ->
          match Hashtbl.find_opt p.p_index x with
          | None -> raise Not_found
          | Some i ->
              let base = (!s * p.p_alpha) + i in
              let o = Array.unsafe_get p.p_out base in
              s := Array.unsafe_get p.p_next base;
              incr n;
              Array.unsafe_get p.p_outputs o)
        word
    in
    Metrics.inc ~by:!n m_packed_steps;
    outs

  let run p word = run_from p p.p_initial word

  let state_after_from p s0 word =
    let s = ref s0 and n = ref 0 in
    List.iter
      (fun x ->
        match Hashtbl.find_opt p.p_index x with
        | None -> raise Not_found
        | Some i ->
            s := Array.unsafe_get p.p_next ((!s * p.p_alpha) + i);
            incr n)
      word;
    Metrics.inc ~by:!n m_packed_steps;
    !s

  let state_after p word = state_after_from p p.p_initial word

  (* Pure id-level stepping over pre-interned words: the form the A9
     ablation and the micro-benchmarks drive. *)
  let run_ids p s0 word_ids =
    let len = Array.length word_ids in
    let out = Array.make len 0 in
    let s = ref s0 in
    for k = 0 to len - 1 do
      let base = (!s * p.p_alpha) + Array.unsafe_get word_ids k in
      Array.unsafe_set out k (Array.unsafe_get p.p_out base);
      s := Array.unsafe_get p.p_next base
    done;
    Metrics.inc ~by:len m_packed_steps;
    out

  let intern_word p word =
    Array.of_list
      (List.map
         (fun x ->
           match Hashtbl.find_opt p.p_index x with
           | Some i -> i
           | None -> raise Not_found)
         word)
end

let pack = Packed.pack

let run_from m s word = Packed.run_from (pack m) s word
let run m word = run_from m m.initial word
let state_after m word = Packed.state_after (pack m) word

(* Functional reference stepping, bypassing the packed form: the
   differential baseline the QCheck observational-equality property and
   the A9 ablation compare {!run} against. *)
let run_reference_from m s0 word =
  let rec loop s acc = function
    | [] -> List.rev acc
    | x :: rest ->
        let s', o = step m s x in
        loop s' (o :: acc) rest
  in
  loop s0 [] word

let run_reference m word = run_reference_from m m.initial word

let reachable m =
  let seen = Array.make m.size false in
  let queue = Queue.create () in
  seen.(m.initial) <- true;
  Queue.add m.initial queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    Array.iter
      (fun s' ->
        if not seen.(s') then begin
          seen.(s') <- true;
          Queue.add s' queue
        end)
      m.delta.(s)
  done;
  seen

let trim m =
  let seen = reachable m in
  let remap = Array.make m.size (-1) in
  let count = ref 0 in
  for s = 0 to m.size - 1 do
    if seen.(s) then begin
      remap.(s) <- !count;
      incr count
    end
  done;
  if !count = m.size then m
  else begin
    let n = Array.length m.inputs in
    let delta = Array.init !count (fun _ -> Array.make n 0) in
    let lambda = Array.init !count (fun _ -> Array.make n m.lambda.(m.initial).(0)) in
    for s = 0 to m.size - 1 do
      if seen.(s) then begin
        let s' = remap.(s) in
        for i = 0 to n - 1 do
          delta.(s').(i) <- remap.(m.delta.(s).(i));
          lambda.(s').(i) <- m.lambda.(s).(i)
        done
      end
    done;
    make ~size:!count ~initial:remap.(m.initial) ~inputs:m.inputs ~delta ~lambda
  end

(* Moore-style partition refinement: start from the partition induced by
   output rows, refine by successor-block signatures until stable. *)
let minimize m =
  let m = trim m in
  let n = Array.length m.inputs in
  let block = Array.make m.size 0 in
  (* Initial partition by output row. *)
  let tbl = Hashtbl.create 16 in
  let next = ref 0 in
  for s = 0 to m.size - 1 do
    let key = Array.to_list m.lambda.(s) in
    match Hashtbl.find_opt tbl key with
    | Some b -> block.(s) <- b
    | None ->
        Hashtbl.add tbl key !next;
        block.(s) <- !next;
        incr next
  done;
  let blocks = ref !next in
  let changed = ref true in
  while !changed do
    changed := false;
    let tbl = Hashtbl.create 16 in
    let next = ref 0 in
    let new_block = Array.make m.size 0 in
    for s = 0 to m.size - 1 do
      let key = (block.(s), List.init n (fun i -> block.(m.delta.(s).(i)))) in
      match Hashtbl.find_opt tbl key with
      | Some b -> new_block.(s) <- b
      | None ->
          Hashtbl.add tbl key !next;
          new_block.(s) <- !next;
          incr next
    done;
    if !next <> !blocks then begin
      changed := true;
      blocks := !next;
      Array.blit new_block 0 block 0 m.size
    end
  done;
  if !blocks = m.size then m
  else begin
    (* One representative per block. *)
    let rep = Array.make !blocks (-1) in
    for s = m.size - 1 downto 0 do
      rep.(block.(s)) <- s
    done;
    let delta = Array.init !blocks (fun b -> Array.init n (fun i -> block.(m.delta.(rep.(b)).(i)))) in
    let lambda = Array.init !blocks (fun b -> Array.copy m.lambda.(rep.(b))) in
    make ~size:!blocks ~initial:block.(m.initial) ~inputs:m.inputs ~delta ~lambda
  end

(* BFS renumbering: states are numbered in the order breadth-first
   search from the initial state discovers them, exploring inputs in
   alphabet order; unreachable states are dropped. Isomorphic machines
   over the same alphabet therefore produce structurally equal
   delta/lambda matrices — the property the canonical textual model
   format relies on for byte-identical serialization. *)
let canonicalize m =
  let n = Array.length m.inputs in
  let order = Array.make m.size (-1) in
  let count = ref 0 in
  let queue = Queue.create () in
  order.(m.initial) <- !count;
  incr count;
  Queue.add m.initial queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    for i = 0 to n - 1 do
      let s' = m.delta.(s).(i) in
      if order.(s') < 0 then begin
        order.(s') <- !count;
        incr count;
        Queue.add s' queue
      end
    done
  done;
  let size = !count in
  let rep = Array.make size 0 in
  for s = 0 to m.size - 1 do
    if order.(s) >= 0 then rep.(order.(s)) <- s
  done;
  let delta =
    Array.init size (fun q -> Array.init n (fun i -> order.(m.delta.(rep.(q)).(i))))
  in
  let lambda = Array.init size (fun q -> Array.copy m.lambda.(rep.(q))) in
  make ~size ~initial:0 ~inputs:m.inputs ~delta ~lambda

let same_alphabet a b =
  Array.length a.inputs = Array.length b.inputs
  && Array.for_all2 (fun x y -> x = y) a.inputs b.inputs

(* BFS over the product machine on packed transition tables: product
   states are encoded as [sa * |b| + sb] into a byte-per-state visited
   map and an int queue, so the search allocates nothing per edge. The
   dequeue order (FIFO, inputs in alphabet order) is exactly the order
   the historical Hashtbl-based search used, so the returned word — the
   first separating edge encountered — is unchanged. *)
let product_bfs_packed pa pb =
  let n = pa.p_alpha in
  let nb = pb.p_size in
  let total = pa.p_size * nb in
  let seen = Bytes.make total '\000' in
  let parent = Array.make total (-1) in
  (* parent pointer encodes (predecessor product state, input index) *)
  let queue = Array.make total 0 in
  let head = ref 0 and tail = ref 0 in
  let start = (pa.p_initial * nb) + pb.p_initial in
  Bytes.unsafe_set seen start '\001';
  queue.(!tail) <- start;
  incr tail;
  let result = ref (-1) and result_i = ref (-1) in
  (try
     while !head < !tail do
       let pq = queue.(!head) in
       incr head;
       let sa = pq / nb and sb = pq mod nb in
       let base_a = sa * n and base_b = sb * n in
       for i = 0 to n - 1 do
         if !result < 0 then begin
           let oa = Array.unsafe_get pa.p_outputs (Array.unsafe_get pa.p_out (base_a + i)) in
           let ob = Array.unsafe_get pb.p_outputs (Array.unsafe_get pb.p_out (base_b + i)) in
           if oa <> ob then begin
             result := pq;
             result_i := i;
             raise Exit
           end;
           let pq' =
             (Array.unsafe_get pa.p_next (base_a + i) * nb)
             + Array.unsafe_get pb.p_next (base_b + i)
           in
           if Bytes.unsafe_get seen pq' = '\000' then begin
             Bytes.unsafe_set seen pq' '\001';
             parent.(pq') <- (pq * n) + i;
             queue.(!tail) <- pq';
             incr tail
           end
         end
       done
     done
   with Exit -> ());
  if !result < 0 then None
  else begin
    (* Rebuild the input word along the parent chain. *)
    let rec path acc pq =
      if pq = start && parent.(pq) < 0 then acc
      else
        let enc = parent.(pq) in
        path (pa.p_inputs.(enc mod n) :: acc) (enc / n)
    in
    Some (path [ pa.p_inputs.(!result_i) ] !result)
  end

let equivalent a b =
  if not (same_alphabet a b) then
    invalid_arg "Mealy.equivalent: machines have different alphabets";
  product_bfs_packed (pack a) (pack b)

let access_words m =
  let words = Array.make m.size [] in
  let seen = Array.make m.size false in
  let queue = Queue.create () in
  seen.(m.initial) <- true;
  Queue.add m.initial queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    Array.iteri
      (fun i s' ->
        if not seen.(s') then begin
          seen.(s') <- true;
          words.(s') <- words.(s) @ [ m.inputs.(i) ];
          Queue.add s' queue
        end)
      m.delta.(s)
  done;
  words

(* Same packed product BFS, between two states of one machine. *)
let distinguishing_word m p q =
  let pm = pack m in
  let n = pm.p_alpha in
  let nb = pm.p_size in
  let total = nb * nb in
  let seen = Bytes.make total '\000' in
  let parent = Array.make total (-1) in
  let queue = Array.make total 0 in
  let head = ref 0 and tail = ref 0 in
  let start = (p * nb) + q in
  Bytes.unsafe_set seen start '\001';
  queue.(!tail) <- start;
  incr tail;
  let result = ref (-1) and result_i = ref (-1) in
  (try
     while !head < !tail do
       let pq2 = queue.(!head) in
       incr head;
       let sp = pq2 / nb and sq = pq2 mod nb in
       let base_p = sp * n and base_q = sq * n in
       for i = 0 to n - 1 do
         if !result < 0 then begin
           let op = Array.unsafe_get pm.p_out (base_p + i) in
           let oq = Array.unsafe_get pm.p_out (base_q + i) in
           if op <> oq then begin
             result := pq2;
             result_i := i;
             raise Exit
           end;
           let pq' =
             (Array.unsafe_get pm.p_next (base_p + i) * nb)
             + Array.unsafe_get pm.p_next (base_q + i)
           in
           if Bytes.unsafe_get seen pq' = '\000' then begin
             Bytes.unsafe_set seen pq' '\001';
             parent.(pq') <- (pq2 * n) + i;
             queue.(!tail) <- pq';
             incr tail
           end
         end
       done
     done
   with Exit -> ());
  if !result < 0 then None
  else begin
    let rec path acc pq2 =
      if pq2 = start && parent.(pq2) < 0 then acc
      else
        let enc = parent.(pq2) in
        path (pm.p_inputs.(enc mod n) :: acc) (enc / n)
    in
    Some (path [ pm.p_inputs.(!result_i) ] !result)
  end

let characterizing_set m =
  let pm = pack m in
  let words = ref [] in
  (* Words are kept pre-interned alongside so the cover check steps
     packed ids instead of re-hashing symbols per pair. *)
  let interned = ref [] in
  let covered p q =
    List.exists
      (fun ids -> Packed.run_ids pm p ids <> Packed.run_ids pm q ids)
      !interned
  in
  for p = 0 to m.size - 1 do
    for q = p + 1 to m.size - 1 do
      if not (covered p q) then
        match distinguishing_word m p q with
        | Some w ->
            words := w :: !words;
            interned := Packed.intern_word pm w :: !interned
        | None -> ()
    done
  done;
  if !words = [] then [ [] ] else !words

let count_words ~alphabet ~max_len =
  let rec loop k pow acc =
    if k > max_len then acc else loop (k + 1) (pow * alphabet) (acc + (pow * alphabet))
  in
  loop 1 1 0

let to_dot ?(name = "mealy") ~input_pp ~output_pp m =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "digraph %s {@\n  rankdir=LR;@\n  node [shape=circle];@\n" name;
  Format.fprintf fmt "  __start [shape=none,label=\"\"];@\n  __start -> s%d;@\n" m.initial;
  let n = Array.length m.inputs in
  for s = 0 to m.size - 1 do
    (* Group parallel edges by target state. *)
    let by_target = Hashtbl.create 4 in
    for i = 0 to n - 1 do
      let t = m.delta.(s).(i) in
      let label =
        Format.asprintf "%a / %a" input_pp m.inputs.(i) output_pp m.lambda.(s).(i)
      in
      let prev = try Hashtbl.find by_target t with Not_found -> [] in
      Hashtbl.replace by_target t (label :: prev)
    done;
    Hashtbl.iter
      (fun t labels ->
        let label = String.concat "\\n" (List.rev labels) in
        Format.fprintf fmt "  s%d -> s%d [label=\"%s\"];@\n" s t label)
      by_target
  done;
  Format.fprintf fmt "}@.";
  Buffer.contents buf

let map_outputs f m =
  {
    m with
    lambda = Array.map (Array.map f) m.lambda;
    packed_ = Atomic.make None;
  }
