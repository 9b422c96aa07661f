module Sul = Prognosis_sul.Sul
module Nondet = Prognosis_sul.Nondet
module Cache = Prognosis_learner.Cache
module Oracle = Prognosis_learner.Oracle
module Learn = Prognosis_learner.Learn
module Checkpoint = Prognosis_learner.Checkpoint
module Rng = Prognosis_sul.Rng
module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace
module Jsonx = Prognosis_obs.Jsonx

type config = {
  workers : int;
  batch : bool;
  parallel : bool;
  replicas : int;
  max_strikes : int;
  cooldown : int;
}

let default =
  {
    workers = 1;
    batch = true;
    parallel = false;
    replicas = 1;
    max_strikes = 2;
    cooldown = 256;
  }

let sequential = { default with batch = false }

type ('i, 'o) worker = {
  id : int;
  sul : ('i, 'o) Sul.t;
  mutable position : int list option;
      (* word replayed since the last reset; [None] = state unknown,
         the next run must reset. A resume takes the position's
         per-step outputs from the cache, which the caching view fills
         as soon as the engine answers; a position the cache cannot
         answer falls back to a full run. *)
  mutable runs_done : int;
  mutable resets_done : int;
  mutable steps_done : int;
  mutable strikes : int;
  mutable quarantined_until : int; (* engine run-clock value *)
}

type stats = {
  mutable batches : int;
  mutable planned_words : int;
  mutable dedup_hits : int;
  mutable prefix_answers : int;
  mutable runs : int;
  mutable resumed : int;
  mutable resets : int;
  mutable steps : int;
  mutable baseline_resets : int;
  mutable baseline_steps : int;
  mutable disagreements : int;
  mutable vote_runs : int;
  mutable quarantines : int;
}

let fresh_stats () =
  {
    batches = 0;
    planned_words = 0;
    dedup_hits = 0;
    prefix_answers = 0;
    runs = 0;
    resumed = 0;
    resets = 0;
    steps = 0;
    baseline_resets = 0;
    baseline_steps = 0;
    disagreements = 0;
    vote_runs = 0;
    quarantines = 0;
  }

type ('i, 'o) t = {
  config : config;
  resume : bool;
      (* mid-word resume; off on the sequential oracle (one worker, no
         batching), which replays every miss from reset exactly like
         [Oracle.of_sul] *)
  workers : ('i, 'o) worker array;
  inputs : 'i array; (* the workers' alphabet *)
  order : int list -> int list -> int;
      (* position words in the lexicographic order of their symbols:
         batches are planned, and run, in the order symbol words had *)
  cache : ('i, 'o) Cache.t;
  stats : stats;
  oracle_stats : Oracle.stats;
  mutable clock : int; (* total runs executed, for quarantine cooldowns *)
  mutable rr : int; (* round-robin cursor for replica selection *)
  labels : (string * string) list;
      (* extra labels (e.g. session=..) prefixed to every per-worker
         labelled metric, so concurrent engines don't share series *)
  (* per-worker labelled gauges (exec.worker.*{worker="i"}), obtained
     once at pool creation and written on the main domain in [flush] *)
  worker_gauges : (float ref * float ref * float ref) array;
}

let m_batches = Metrics.counter Metrics.default "exec.batches"
let h_batch_words = Metrics.histogram Metrics.default "exec.batch_words"
let m_planned = Metrics.counter Metrics.default "exec.planned_words"
let m_dedup = Metrics.counter Metrics.default "exec.dedup_hits"
let m_prefix_answers = Metrics.counter Metrics.default "exec.prefix_answers"
let m_runs = Metrics.counter Metrics.default "exec.runs"
let m_resumed = Metrics.counter Metrics.default "exec.resumed_runs"
let m_resets = Metrics.counter Metrics.default "exec.resets"
let m_steps = Metrics.counter Metrics.default "exec.steps"
let g_saved_resets = Metrics.gauge Metrics.default "exec.saved_resets"
let g_saved_steps = Metrics.gauge Metrics.default "exec.saved_steps"
let m_disagreements = Metrics.counter Metrics.default "exec.disagreements"
let m_vote_runs = Metrics.counter Metrics.default "exec.vote_runs"
let m_quarantines = Metrics.counter Metrics.default "exec.quarantines"
let g_workers = Metrics.gauge Metrics.default "exec.workers"
let g_utilization = Metrics.gauge Metrics.default "exec.worker_utilization"

let worker_label labels id = labels @ [ ("worker", string_of_int id) ]

let worker_strikes labels id =
  Metrics.counter_l Metrics.default "exec.worker.strikes"
    (worker_label labels id)

let worker_quarantines labels id =
  Metrics.counter_l Metrics.default "exec.worker.quarantines"
    (worker_label labels id)

(* Lexicographic order of position words by their symbols' order:
   plain int-list [compare] when the alphabet is already sorted. *)
let symbol_order inputs =
  let n = Array.length inputs in
  let sorted =
    List.stable_sort
      (fun i j -> compare inputs.(i) inputs.(j))
      (List.init n Fun.id)
  in
  let rank = Array.make n 0 in
  List.iteri (fun r i -> rank.(i) <- r) sorted;
  if List.for_all2 ( = ) sorted (List.init n Fun.id) then Stdlib.compare
  else
    let rec cmp a b =
      match (a, b) with
      | [], [] -> 0
      | [], _ -> -1
      | _, [] -> 1
      | x :: a', y :: b' ->
          let c = Int.compare rank.(x) rank.(y) in
          if c <> 0 then c else cmp a' b'
    in
    cmp

let create ?(config = default) ?(labels = []) ?cache ~factory () =
  if config.workers < 1 then invalid_arg "Engine.create: workers must be >= 1";
  if config.replicas < 1 then
    invalid_arg "Engine.create: replicas must be >= 1";
  if config.replicas > config.workers then
    invalid_arg "Engine.create: replicas cannot exceed workers";
  let workers =
    Array.init config.workers (fun id ->
        {
          id;
          sul = factory id;
          position = None;
          runs_done = 0;
          resets_done = 0;
          steps_done = 0;
          strikes = 0;
          quarantined_until = 0;
        })
  in
  Metrics.set g_workers (float_of_int config.workers);
  let worker_gauges =
    Array.init config.workers (fun id ->
        ( Metrics.gauge_l Metrics.default "exec.worker.runs"
            (worker_label labels id),
          Metrics.gauge_l Metrics.default "exec.worker.resets"
            (worker_label labels id),
          Metrics.gauge_l Metrics.default "exec.worker.steps"
            (worker_label labels id) ))
  in
  let inputs = workers.(0).sul.Sul.inputs in
  {
    config;
    resume = config.batch || config.workers > 1;
    workers;
    inputs;
    order = symbol_order inputs;
    cache = (match cache with Some c -> c | None -> Cache.create ());
    stats = fresh_stats ();
    oracle_stats = Oracle.fresh_stats ();
    clock = 0;
    rr = 0;
    labels;
    worker_gauges;
  }

(* --- checkpointable pool state ---

   What survives a crash is the robustness bookkeeping: which workers
   were striking out or quarantined, and where the run/cooldown clock
   stood. Worker resume positions are deliberately dropped — a thawed
   pool's SUL instances start from reset, so a remembered position
   would be a lie. The blob is opaque to callers ({!Checkpoint} stores
   it verbatim). *)

type frozen = {
  f_workers : int;
  f_state : (int * int * int) array; (* runs_done, strikes, quarantined_until *)
  f_clock : int;
  f_rr : int;
}

let freeze t =
  Marshal.to_string
    {
      f_workers = t.config.workers;
      f_state =
        Array.map (fun w -> (w.runs_done, w.strikes, w.quarantined_until)) t.workers;
      f_clock = t.clock;
      f_rr = t.rr;
    }
    []

let thaw t blob =
  match (Marshal.from_string blob 0 : frozen) with
  | exception _ -> invalid_arg "Engine.thaw: unreadable state blob"
  | f ->
      if f.f_workers <> t.config.workers then
        invalid_arg
          (Printf.sprintf
             "Engine.thaw: pool size changed (checkpointed %d workers, pool \
              has %d)"
             f.f_workers t.config.workers);
      Array.iteri
        (fun i w ->
          let runs_done, strikes, quarantined_until = f.f_state.(i) in
          w.runs_done <- runs_done;
          w.strikes <- strikes;
          w.quarantined_until <- quarantined_until;
          w.position <- None)
        t.workers;
      t.clock <- f.f_clock;
      t.rr <- f.f_rr

let active_workers t =
  let l = Array.to_list t.workers in
  match List.filter (fun w -> w.quarantined_until <= t.clock) l with
  | [] -> l (* unreachable: quarantine never empties the pool *)
  | a -> a

let rec drop n l =
  if n = 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r

(* Per-slice accounting, merged into the shared stats on the main
   domain: parallel slices never touch [t.stats] or the metrics
   registry themselves. *)
type acct = {
  mutable a_runs : int;
  mutable a_resumed : int;
  mutable a_resets : int;
  mutable a_steps : int;
}

let fresh_acct () = { a_runs = 0; a_resumed = 0; a_resets = 0; a_steps = 0 }

let rec step_word acct worker = function
  | [] -> []
  | x :: rest ->
      acct.a_steps <- acct.a_steps + 1;
      worker.steps_done <- worker.steps_done + 1;
      let o = worker.sul.Sul.step x in
      o :: step_word acct worker rest

let full_run acct worker word =
  worker.position <- None;
  worker.sul.Sul.reset ();
  acct.a_resets <- acct.a_resets + 1;
  worker.resets_done <- worker.resets_done + 1;
  let outs = step_word acct worker word in
  worker.position <- Some word;
  outs

(* Execute [word] on [worker]. With [resume] on, a worker standing at
   the end of a cached strict prefix of [word] skips the reset and
   steps only the suffix — the prefix outputs are replayed from the
   cache. Votes run with [resume] off so replicated answers stay
   independent of cached material. *)
let run_word ~resume cache acct worker word =
  acct.a_runs <- acct.a_runs + 1;
  worker.runs_done <- worker.runs_done + 1;
  match worker.position with
  | Some pos
    when resume && pos <> []
         && List.length pos < List.length word
         && Plan.is_prefix pos word -> (
      match Cache.lookup cache pos with
      | Some pos_outs ->
          acct.a_resumed <- acct.a_resumed + 1;
          worker.position <- None;
          let souts = step_word acct worker (drop (List.length pos) word) in
          worker.position <- Some word;
          pos_outs @ souts
      | None -> full_run acct worker word)
  | _ -> full_run acct worker word

let flush t acct =
  let s = t.stats in
  s.runs <- s.runs + acct.a_runs;
  s.resumed <- s.resumed + acct.a_resumed;
  s.resets <- s.resets + acct.a_resets;
  s.steps <- s.steps + acct.a_steps;
  t.clock <- t.clock + acct.a_runs;
  if acct.a_runs > 0 then Metrics.inc ~by:acct.a_runs m_runs;
  if acct.a_resumed > 0 then Metrics.inc ~by:acct.a_resumed m_resumed;
  if acct.a_resets > 0 then Metrics.inc ~by:acct.a_resets m_resets;
  if acct.a_steps > 0 then Metrics.inc ~by:acct.a_steps m_steps;
  let mx = Array.fold_left (fun m w -> max m w.runs_done) 0 t.workers in
  let mn =
    Array.fold_left (fun m w -> min m w.runs_done) max_int t.workers
  in
  if mx > 0 then Metrics.set g_utilization (float_of_int mn /. float_of_int mx);
  for i = 0 to Array.length t.workers - 1 do
    let w = t.workers.(i) and g_runs, g_resets, g_steps = t.worker_gauges.(i) in
    Metrics.set g_runs (float_of_int w.runs_done);
    Metrics.set g_resets (float_of_int w.resets_done);
    Metrics.set g_steps (float_of_int w.steps_done)
  done

(* The engine's savings are reported against the no-reuse sequential
   oracle: every query the learner (or equivalence suite) asks costs
   one reset plus one step per symbol when executed directly. The
   boundary where that cost is counted is [membership] — before the
   cache, so hits, prefix answers, batch dedup and resume all show up
   as savings. *)
let count_baseline t word =
  let s = t.stats in
  s.baseline_resets <- s.baseline_resets + 1;
  s.baseline_steps <- s.baseline_steps + List.length word

let sync_saved t =
  let s = t.stats in
  Metrics.set g_saved_resets (float_of_int (s.baseline_resets - s.resets));
  Metrics.set g_saved_steps (float_of_int (s.baseline_steps - s.steps))

(* Longest usable resume position wins; ties go to the least-used
   worker so utilization stays balanced. *)
let resume_score t word w =
  match w.position with
  | Some p
    when p <> []
         && List.length p < List.length word
         && Plan.is_prefix p word
         && Cache.lookup t.cache p <> None ->
      List.length p
  | _ -> -1

(* A scan of the pool that allocates nothing: it runs once per
   executed word. *)
let rec pick t word i best sb =
  if i = Array.length t.workers then best
  else
    let w = t.workers.(i) in
    if w.quarantined_until > t.clock then pick t word (i + 1) best sb
    else
      let sw = resume_score t word w in
      if sw > sb || (sw = sb && w.runs_done < best.runs_done) then
        pick t word (i + 1) w sw
      else pick t word (i + 1) best sb

let pick_worker t word =
  if Array.length t.workers = 1 then t.workers.(0)
  else pick t word 0 t.workers.(0) min_int

let pick_replicas t n =
  let a = Array.of_list (active_workers t) in
  let k = Array.length a in
  let n = min n k in
  let start = t.rr in
  t.rr <- t.rr + 1;
  List.init n (fun i -> a.((start + i) mod k))

let tally answers =
  let rec add obs a =
    match obs with
    | [] -> [ { Nondet.answer = a; count = 1 } ]
    | o :: rest ->
        if o.Nondet.answer = a then { o with Nondet.count = o.count + 1 } :: rest
        else o :: add rest a
  in
  List.sort
    (fun a b -> compare b.Nondet.count a.Nondet.count)
    (List.fold_left add [] (List.map snd answers))

let strike t worker =
  worker.strikes <- worker.strikes + 1;
  Metrics.inc (worker_strikes t.labels worker.id);
  if
    worker.strikes >= t.config.max_strikes
    && List.length (active_workers t) > 1
  then begin
    worker.quarantined_until <- t.clock + t.config.cooldown;
    worker.strikes <- 0;
    worker.position <- None;
    t.stats.quarantines <- t.stats.quarantines + 1;
    Metrics.inc m_quarantines;
    Metrics.inc (worker_quarantines t.labels worker.id);
    if Trace.enabled () then
      Trace.event
        ~attrs:
          [
            ("worker", Jsonx.Int worker.id);
            ("until_run", Jsonx.Int worker.quarantined_until);
          ]
        "exec.quarantine"
  end

(* Replicated execution: the word runs in full on [replicas] distinct
   workers; agreement returns immediately, disagreement escalates to
   every active worker and takes the strict-majority answer, striking
   the outvoted workers (quarantine after [max_strikes], re-admitted
   after [cooldown] runs). No majority means the pool as a whole
   answers nondeterministically — exactly the situation the paper's §5
   check reports. *)
let vote t acct word =
  let chosen = pick_replicas t t.config.replicas in
  let answers =
    List.map (fun w -> (w, run_word ~resume:false t.cache acct w word)) chosen
  in
  t.stats.vote_runs <- t.stats.vote_runs + List.length answers - 1;
  if List.length answers > 1 then
    Metrics.inc ~by:(List.length answers - 1) m_vote_runs;
  match tally answers with
  | [ only ] -> only.Nondet.answer
  | _ ->
      t.stats.disagreements <- t.stats.disagreements + 1;
      Metrics.inc m_disagreements;
      if Trace.enabled () then
        Trace.event
          ~attrs:[ ("word_len", Jsonx.Int (List.length word)) ]
          "exec.disagreement";
      let chosen_ids = List.map (fun (w, _) -> w.id) answers in
      let rest =
        List.filter
          (fun w -> not (List.mem w.id chosen_ids))
          (active_workers t)
      in
      let more =
        List.map (fun w -> (w, run_word ~resume:false t.cache acct w word)) rest
      in
      t.stats.vote_runs <- t.stats.vote_runs + List.length more;
      if more <> [] then Metrics.inc ~by:(List.length more) m_vote_runs;
      let all = answers @ more in
      let obs = tally all in
      let best = List.hd obs in
      let total = List.length all in
      if 2 * best.Nondet.count > total then begin
        let majority = best.Nondet.answer in
        List.iter (fun (w, a) -> if a <> majority then strike t w) all;
        majority
      end
      else
        raise
          (Nondet.Nondeterministic_sul
             (Printf.sprintf
                "query pool: no majority on a %d-symbol word (%d distinct \
                 answers over %d runs)"
                (List.length word) (List.length obs) total))

(* The engine answers; the caching view above it ({!membership})
   inserts each answered word into the cache, once. *)
let exec_word t word =
  let acct = fresh_acct () in
  let outs =
    if t.config.replicas > 1 then vote t acct word
    else run_word ~resume:t.resume t.cache acct (pick_worker t word) word
  in
  flush t acct;
  outs

(* One domain per worker, worker [k] taking runs k, k+n, k+2n, ...;
   slices only read the cache (resume lookups against material from
   earlier batches) and write their own worker record, their own
   [outs] slots and a local acct, so the parallel phase is race-free.
   Stats and metrics are merged after the join, on the main domain.
   Runs within a batch are pairwise non-prefix (maximality), so no
   slice ever needs an output produced by the current batch. *)
let parallel_exec t acct runs outs =
  let actives = Array.of_list (active_workers t) in
  let n = Array.length actives in
  let exec_slice k () =
    let local = fresh_acct () in
    let worker = actives.(k) in
    let i = ref k in
    while !i < Array.length runs do
      outs.(!i) <- run_word ~resume:t.resume t.cache local worker runs.(!i);
      i := !i + n
    done;
    local
  in
  let domains =
    Array.init (n - 1) (fun k -> Domain.spawn (exec_slice (k + 1)))
  in
  let main = try Ok (exec_slice 0 ()) with e -> Error e in
  let joined =
    Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) domains
  in
  let all = Array.append [| main |] joined in
  Array.iter (function Error e -> raise e | Ok _ -> ()) all;
  Array.iter
    (function
      | Error _ -> ()
      | Ok local ->
          acct.a_runs <- acct.a_runs + local.a_runs;
          acct.a_resumed <- acct.a_resumed + local.a_resumed;
          acct.a_resets <- acct.a_resets + local.a_resets;
          acct.a_steps <- acct.a_steps + local.a_steps)
    all

let rec take n l =
  match l with x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

(* [Plan.build] sorts its runs, and every planned word is a prefix of
   the first run sorting at or after it; binary search finds that
   run, whose outputs answer the word. *)
let answer_of order runs outs word =
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if order runs.(mid) word < 0 then first (mid + 1) hi else first lo mid
  in
  take (List.length word) outs.(first 0 (Array.length runs))

let exec_batch t words =
  let plan = Plan.build ~compare:t.order words in
  let s = t.stats in
  s.batches <- s.batches + 1;
  Metrics.inc m_batches;
  Metrics.observe h_batch_words (float_of_int plan.Plan.words);
  s.planned_words <- s.planned_words + plan.Plan.words;
  Metrics.inc ~by:plan.Plan.words m_planned;
  if plan.Plan.dupes > 0 then begin
    s.dedup_hits <- s.dedup_hits + plan.Plan.dupes;
    Metrics.inc ~by:plan.Plan.dupes m_dedup
  end;
  if plan.Plan.subsumed > 0 then begin
    s.prefix_answers <- s.prefix_answers + plan.Plan.subsumed;
    Metrics.inc ~by:plan.Plan.subsumed m_prefix_answers
  end;
  let runs = Array.of_list plan.Plan.runs in
  let outs = Array.make (Array.length runs) [] in
  let acct = fresh_acct () in
  let execute () =
    if t.config.replicas > 1 then
      Array.iteri (fun i w -> outs.(i) <- vote t acct w) runs
    else if
      t.config.parallel
      && List.length (active_workers t) > 1
      && Array.length runs > 1
      && not (Trace.enabled ())
      (* the trace sink is not safe to share across domains *)
    then parallel_exec t acct runs outs
    else
      Array.iteri
        (fun i w ->
          let run () =
            outs.(i) <-
              run_word ~resume:t.resume t.cache acct (pick_worker t w) w
          in
          if Trace.enabled () then
            Trace.with_span
              ~attrs:[ ("len", Jsonx.Int (List.length w)) ]
              "oracle.mq" run
          else run ())
        runs
  in
  if Trace.enabled () then
    Trace.with_span
      ~attrs:
        [
          ("words", Jsonx.Int plan.Plan.words);
          ("runs", Jsonx.Int (List.length plan.Plan.runs));
        ]
      "exec.batch" execute
  else execute ();
  flush t acct;
  List.map (answer_of t.order runs outs) words

let membership t =
  let cached =
    Cache.wrap t.cache
      (Oracle.of_fun ~stats:t.oracle_stats ~inputs:t.inputs
         ?batch:(if t.config.batch then Some (exec_batch t) else None)
         (exec_word t))
  in
  (* Count the no-reuse sequential baseline for every query crossing
     the learner boundary — including the ones the cache answers. *)
  let ask word =
    count_baseline t word;
    let outs = cached.Oracle.ask word in
    sync_saved t;
    outs
  in
  let ask_batch =
    Option.map
      (fun f words ->
        List.iter (count_baseline t) words;
        let outs = f words in
        sync_saved t;
        outs)
      cached.Oracle.ask_batch
  in
  { cached with Oracle.ask; ask_batch }

let config t = t.config
let stats t = t.stats
let oracle_stats t = t.oracle_stats
(* Per engine, also over a shared cache: the misses are the words that
   reached this pool, the hits every other word this engine was asked. *)
let cache_stats t =
  let misses = t.oracle_stats.Oracle.membership_queries in
  (t.stats.baseline_resets - misses, misses)
let worker_runs t = Array.map (fun w -> w.runs_done) t.workers
let saved_resets t = t.stats.baseline_resets - t.stats.resets
let saved_steps t = t.stats.baseline_steps - t.stats.steps

let quarantined t =
  Array.to_list t.workers
  |> List.filter (fun w -> w.quarantined_until > t.clock)
  |> List.map (fun w -> w.id)

let stats_json t =
  let s = t.stats in
  let hits, misses = cache_stats t in
  Jsonx.Obj
    [
      ("schema", Jsonx.String "prognosis.exec/1");
      ("workers", Jsonx.Int t.config.workers);
      ("replicas", Jsonx.Int t.config.replicas);
      ("batch", Jsonx.Bool t.config.batch);
      ("parallel", Jsonx.Bool t.config.parallel);
      ("batches", Jsonx.Int s.batches);
      ("planned_words", Jsonx.Int s.planned_words);
      ("dedup_hits", Jsonx.Int s.dedup_hits);
      ("prefix_answers", Jsonx.Int s.prefix_answers);
      ("runs", Jsonx.Int s.runs);
      ("resumed_runs", Jsonx.Int s.resumed);
      ("resets", Jsonx.Int s.resets);
      ("steps", Jsonx.Int s.steps);
      ("baseline_resets", Jsonx.Int s.baseline_resets);
      ("baseline_steps", Jsonx.Int s.baseline_steps);
      ("saved_resets", Jsonx.Int (saved_resets t));
      ("saved_steps", Jsonx.Int (saved_steps t));
      ("cache_hits", Jsonx.Int hits);
      ("cache_misses", Jsonx.Int misses);
      ("disagreements", Jsonx.Int s.disagreements);
      ("vote_runs", Jsonx.Int s.vote_runs);
      ("quarantines", Jsonx.Int s.quarantines);
      ( "worker_runs",
        Jsonx.List
          (Array.to_list
             (Array.map (fun w -> Jsonx.Int w.runs_done) t.workers)) );
      ( "quarantined_workers",
        Jsonx.List (List.map (fun id -> Jsonx.Int id) (quarantined t)) );
    ]

let seeded_factory make ~seed ~workers =
  let wseeds = Array.map Rng.next64 (Rng.split_n (Rng.create seed) workers) in
  fun i -> make wseeds.(i)

let learn ?(config = sequential) ?labels ?cache ?checkpoint ?algorithm ~factory
    ~inputs ~eq () =
  let factory = factory ~workers:config.workers in
  let cache =
    match checkpoint with Some ck -> Some (Checkpoint.cache ck) | None -> cache
  in
  let engine = create ~config ?labels ?cache ~factory () in
  Option.iter
    (fun ck ->
      (* A thaw failure only loses advisory robustness bookkeeping (a
         resumed run with a resized pool starts its strike counters
         fresh); the query cache is what matters. *)
      (match Checkpoint.exec_blob ck with
      | Some blob -> ( try thaw engine blob with Invalid_argument _ -> ())
      | None -> ());
      Checkpoint.set_exec_state ck (fun () -> freeze engine))
    checkpoint;
  let r =
    Learn.run_mq ?algorithm ?checkpoint
      ~cache_stats:(fun () -> cache_stats engine)
      ~inputs ~mq:(membership engine) ~eq ()
  in
  (r, engine)
