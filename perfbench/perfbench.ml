(* The repository benchmark: three closed-loop workloads over the public
   API (one client starts its next operation when the last returns),
   end-to-end metrics from untraced runs and per-layer metrics from a
   separate traced run. See README.md for the metric definitions.

   Usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1
   Prints one JSON object as the last line of standard output. *)

module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
module Rng = Prognosis_sul.Rng
module Oracle = Prognosis_learner.Oracle
module Cache = Prognosis_learner.Cache
module Learn = Prognosis_learner.Learn
module Eq_oracle = Prognosis_learner.Eq_oracle
module Persist = Prognosis.Persist
module Report = Prognosis.Report
module Subject = Prognosis_service.Subject
module Service = Prognosis_service.Service
module Library = Prognosis_fingerprint.Library
module Splitter = Prognosis_fingerprint.Splitter
module Identify = Prognosis_fingerprint.Identify

(* The deterministic subjects, used by every workload: each answers the
   same for any seed, so one golden model per subject checks every
   learn. quic:mvfst-like is left out: it is nondeterministic and a
   conflicting shared-cache insert aborts a whole fleet, so it would
   measure a crash. *)
let subjects =
  [
    "tcp";
    "tcp:no-challenge";
    "dtls";
    "dtls:no-cookie";
    "quic:quiche-like";
    "quic:google-like";
    "quic:strict-retry";
  ]

let golden_seed = 1L
let fleet_identifies = 3
let seeds_per_subject = 10
let identify_passes = 3
let fleet_variants = 48
let setup_repeats = 3
let algorithm = Learn.Ttt_tree

type workload = Learn_stack | Learn_model | Fleet_mixed

type opts = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  wrong_golden : bool;  (** self-test: corrupt one golden model *)
  perturb_eq : bool;  (** self-test: change the traced eq settings *)
  spans_out : string option;
}

(* --- small helpers --- *)

let now = Spans.now
let ms_of_ns ns = float_of_int ns /. 1e6
let fail fmt = Printf.ksprintf failwith fmt

let subject name =
  match Subject.of_name name with Ok s -> s | Error e -> fail "%s" e

let text_of (s : Subject.t) m =
  Persist.text_of_model ~kind:s.Subject.kind ~input_to_string:Fun.id
    ~output_to_string:Fun.id m

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      let k = int_of_float (ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let sum = List.fold_left ( +. ) 0.

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))
  /. 1048576.

(* A fixed calibration workload built from the standard library only
   (hash-table inserts, list cells, sorting strings over a few MiB), so
   no change to the repository moves it. Run between operations, it
   tracks how fast the machine currently runs allocation- and
   memory-bound code: on a shared box, neighbours' memory traffic slows
   such code by a third or more for seconds at a time, which a pure
   register loop does not see. *)
let calibrate () =
  let t0 = now () in
  let h = Hashtbl.create 16 in
  for i = 0 to 20_000 do
    Hashtbl.replace h ((i * 7919) land 0xfffff) [ i; i ]
  done;
  let a =
    Array.init 20_000 (fun i -> string_of_int ((i * 31337) land 0xffff))
  in
  Array.sort compare a;
  ignore (Sys.opaque_identity (h, a));
  ms_of_ns (now () - t0)

(* Time metrics are reported at this calibration time (about its median
   on the 2-core machine the bounds were set on): a measured time t is
   reported as t * calib_ref_ms / c, where c comes from the calibrations
   run around it (its group of learn cases, fleet or set-up). *)
let calib_ref_ms = 25.0

(* Calibrations run between units of work, their time kept apart so it
   can be left out of the measured time. *)
type calibs = { mutable ms : float list; mutable calib_ns : int }

let fresh_calibs () = { ms = []; calib_ns = 0 }

let tick k =
  let c0 = now () in
  k.ms <- calibrate () :: k.ms;
  k.calib_ns <- k.calib_ns + (now () - c0)

let derive_seeds seed n =
  let st = Random.State.make [| seed; 0x5eed |] in
  List.init n (fun _ -> Int64.of_int (1 + Random.State.int st 0x3fffffff))

(* --- the pipeline, as the case studies configure it --- *)

type counters = { mq : int; sym : int; tw : int }

let counters_of_stats (s : Oracle.stats) =
  {
    mq = s.Oracle.membership_queries;
    sym = s.Oracle.membership_symbols;
    tw = s.Oracle.test_words;
  }

let dtls_scenarios =
  let open Prognosis_dtls.Dtls_alphabet in
  List.map (List.map to_string)
    [
      [
        Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec;
        Finished;
      ];
      [
        Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec;
        Finished; App_data; Alert_close; App_data;
      ];
      [
        Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec;
        Finished; Finished; App_data;
      ];
      [
        Client_hello; Client_key_exchange; Change_cipher_spec; Finished;
        App_data;
      ];
    ]

(* Each study's own equivalence oracle, at the string level.
   [perturb] drops 50 random test words (self-test of the guard). *)
let eq_for ?(perturb = false) (s : Subject.t) ~seed =
  let rng = Rng.create (Int64.add seed 7L) in
  let random max_tests max_len =
    let max_tests = if perturb then max_tests - 50 else max_tests in
    Eq_oracle.random_words ~rng ~max_tests ~min_len:1 ~max_len
  in
  let w = Eq_oracle.w_method ~extra_states:1 () in
  match s.Subject.kind with
  | Persist.Tcp_model | Persist.Tcp_client_model ->
      Eq_oracle.combine [ w; random 500 12 ]
  | Persist.Dtls_model ->
      Eq_oracle.combine
        [ Eq_oracle.fixed_words dtls_scenarios; w; random 400 10 ]
  | Persist.Quic_model -> Eq_oracle.combine [ w; random 400 10 ]

(* --- traced layer boundaries --- *)

let n_spans = 8
let sp_op = 0
let sp_learn = 1
let sp_eq = 2
let sp_cache = 3
let sp_sul_oracle = 4
let sp_step = 5
let sp_reset = 6
let sp_identify = 7

let span_names =
  [|
    "op"; "learn"; "eq_oracle"; "cache"; "sul_oracle"; "sul.step"; "sul.reset";
    "identify";
  |]

let traced_sul ~op (sul : _ Sul.t) =
  {
    sul with
    Sul.reset = (fun () -> Spans.with_span sp_reset op sul.Sul.reset);
    step = (fun x -> Spans.with_span1 sp_step op sul.Sul.step x);
  }

let traced_mq id ~op (mq : _ Oracle.membership) =
  { mq with Oracle.ask = (fun w -> Spans.with_span1 id op mq.Oracle.ask w) }

(* The direct learning path composed from public parts, with a span at
   each boundary: Learn.run_mq over Cache.wrap over Oracle.of_sul. *)
let traced_learn ~op ~perturb (s : Subject.t) ~seed sul =
  let raw = traced_mq sp_sul_oracle ~op (Oracle.of_sul (traced_sul ~op sul)) in
  let c = Cache.create () in
  let mq = traced_mq sp_cache ~op (Cache.wrap c raw) in
  let eq0 = eq_for ~perturb s ~seed in
  let eq mq h = Spans.with_span sp_eq op (fun () -> eq0 mq h) in
  let r =
    Spans.with_span sp_learn op (fun () ->
        Learn.run_mq ~algorithm ~inputs:s.Subject.inputs ~mq ~eq ())
  in
  (r, c)

(* --- per-layer aggregation --- *)

type layers = {
  self_ns : int array;
  calls : int array;
  words : float array;
  mutable sul_ns : int;  (** SUL (step and reset) self time *)
  raw : Buffer.t;  (** the first spans, written out at the end *)
  mutable raw_rows : int;
}

let max_raw_rows = 100_000

let fresh_layers () =
  {
    self_ns = Array.make n_spans 0;
    calls = Array.make n_spans 0;
    words = Array.make n_spans 0.;
    sul_ns = 0;
    raw = Buffer.create 4096;
    raw_rows = 0;
  }

let drain_into l =
  Spans.drain (fun (s : Spans.span) ->
      let k = s.Spans.s_name in
      l.self_ns.(k) <- l.self_ns.(k) + s.Spans.self_ns;
      l.calls.(k) <- l.calls.(k) + 1;
      l.words.(k) <- l.words.(k) +. s.Spans.self_words;
      if k = sp_step || k = sp_reset then
        l.sul_ns <- l.sul_ns + s.Spans.self_ns;
      if l.raw_rows < max_raw_rows then begin
        l.raw_rows <- l.raw_rows + 1;
        Printf.bprintf l.raw "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%.0f\n" s.Spans.s_op
          s.Spans.s_domain s.Spans.s_index span_names.(k) s.Spans.s_parent
          s.Spans.start_ns s.Spans.end_ns s.Spans.self_words
      end)

let write_spans path l =
  let oc = open_out path in
  output_string oc
    "op\tdomain\tspan\tname\tparent\tstart_ns\tend_ns\tself_minor_words\n";
  Buffer.output_buffer oc l.raw;
  close_out oc

(* --- result accounting --- *)

type tally = {
  mutable attempted : int;  (** sessions: learns and identifies *)
  mutable failed : int;
  mutable learns : int;
  mutable mq : int;
  mutable sym : int;
  mutable tw : int;
  mutable words : float;  (** minor words spent in sessions *)
  mutable busy_ns : int;  (** summed session time *)
  mutable wall_ns : int;
      (** loop time, calibration and span draining excluded *)
  mutable learn_ms : float list;
  mutable identify_ms : float list;
  mutable calib_ms : float list;
  mutable heap_mb : float list;  (** per cycle, the largest major heap seen *)
  mutable guard_ok : bool;
      (** every learn reproduced its reference: a traced run's composed
          learns the direct path's, learn-model's the learn-stack
          counters; [correct] in the result *)
  mutable rounds : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_nodes : int;
  mutable walk_words : int;
  mutable confirm_words : int;
  mutable identifies : int;
  mutable sharded_hits : int;
  mutable sharded_misses : int;
  mutable engine_hits : int;
  mutable engine_misses : int;
}

let fresh_tally () =
  {
    attempted = 0;
    failed = 0;
    learns = 0;
    mq = 0;
    sym = 0;
    tw = 0;
    words = 0.;
    busy_ns = 0;
    wall_ns = 0;
    learn_ms = [];
    identify_ms = [];
    calib_ms = [];
    heap_mb = [];
    guard_ok = true;
    rounds = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_nodes = 0;
    walk_words = 0;
    confirm_words = 0;
    identifies = 0;
    sharded_hits = 0;
    sharded_misses = 0;
    engine_hits = 0;
    engine_misses = 0;
  }

let count t (c : counters) =
  t.mq <- t.mq + c.mq;
  t.sym <- t.sym + c.sym;
  t.tw <- t.tw + c.tw

let failure t what =
  t.failed <- t.failed + 1;
  prerr_endline ("perfbench: failed: " ^ what)

let check t ok what = if not ok then failure t what

(* --- set-up --- *)

type golden = { model : (string, string) Mealy.t; mutable text : string }

(* A learn on the CLI's direct path, over the protocol stack. *)
let stack_learn (s : Subject.t) ~seed =
  let m, r = s.Subject.learn ~seed ~algorithm ~exec:None in
  ( m,
    {
      mq = r.Report.membership_queries;
      sym = r.Report.membership_symbols;
      tw = r.Report.test_words;
    } )

(* Every subject with its golden model, learned with [golden_seed]. *)
let learn_goldens ~tick =
  List.map
    (fun name ->
      let s = subject name in
      let m, _ = stack_learn s ~seed:golden_seed in
      tick ();
      (s, { model = m; text = text_of s m }))
    subjects

let library_of goldens =
  let entries =
    List.map
      (fun ((s : Subject.t), g) ->
        Library.entry_of_model ~name:s.Subject.name ~kind:s.Subject.kind
          g.model)
      goldens
  in
  let texts = List.map (fun (e : Library.entry) -> e.Library.text) entries in
  if List.length (List.sort_uniq compare texts) <> List.length texts then
    fail "library subjects are not pairwise distinct";
  { Library.dir = "."; entries }

let forest_of lib =
  match Splitter.of_library lib with Ok f -> f | Error e -> fail "%s" e

(* Runs [f] [setup_repeats] times; [setup_s] is the median set-up time.
   [f] calls [tick] between its learns: each set-up's time, without the
   calibrations, is scaled by the median of the calibrations run before,
   during and after it. *)
let timed_setup f =
  let once () =
    let k = fresh_calibs () in
    let t0 = now () in
    tick k;
    let v = f (fun () -> tick k) in
    tick k;
    let s = float_of_int (now () - t0 - k.calib_ns) /. 1e9 in
    (v, s *. calib_ref_ms /. median k.ms)
  in
  let runs = List.init setup_repeats (fun _ -> once ()) in
  (fst (List.hd runs), median (List.map snd runs))

(* Cycles until the deadline. It is checked only after a multiple of
   [period] cycles, so a run always covers every input variant equally
   often; cycle 0 always runs. *)
let loop ?(period = 1) ~seconds cycle =
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let rec go k =
    if k = 0 || k mod period <> 0 || now () < deadline then begin
      cycle k;
      go (k + 1)
    end
  in
  go 0

(* --- learn-stack and learn-model --- *)

type case = {
  subj : Subject.t;
  seed : int64;
  golden : golden;
  tree : Splitter.tree;
  stack_ref : counters option;  (** learn-model: the learn-stack counters *)
}

let learn_setup ~(opts : opts) tick =
  let goldens = learn_goldens ~tick in
  let forest = forest_of (library_of goldens) in
  let n = List.length goldens in
  let seeds = derive_seeds opts.seed (n * seeds_per_subject) in
  (* every subject with [seeds_per_subject] seeds, subjects interleaved *)
  let pairs =
    List.mapi (fun j seed -> (List.nth goldens (j mod n), seed)) seeds
  in
  List.mapi
    (fun j (((s : Subject.t), golden), seed) ->
      let stack_ref =
        match opts.workload with
        | Learn_model ->
            if j mod 3 = 0 then tick ();
            Some (snd (stack_learn s ~seed))
        | Learn_stack | Fleet_mixed -> None
      in
      {
        subj = s;
        seed;
        golden;
        tree = List.assoc s.Subject.kind forest;
        stack_ref;
      })
    pairs
  |> Array.of_list

let sul_of ~opts c =
  match opts.workload with
  | Learn_model -> Sul.of_mealy c.golden.model
  | Learn_stack | Fleet_mixed ->
      c.subj.Subject.factory ~seed:c.seed ~workers:1 0

(* One untraced learn: the CLI's direct path on the stack, or the same
   Learn.run pipeline over the golden model as SUL. *)
let learn_untraced ~opts c =
  match opts.workload with
  | Learn_model ->
      let r =
        Learn.run ~algorithm ~inputs:c.subj.Subject.inputs
          ~sul:(Sul.of_mealy c.golden.model) ~eq:(eq_for c.subj ~seed:c.seed) ()
      in
      (r.Learn.model, counters_of_stats r.Learn.stats)
  | Learn_stack | Fleet_mixed -> stack_learn c.subj ~seed:c.seed

(* Per case, the counters and model bytes of its untraced learn, which
   every composed learn of a traced run must reproduce. *)
let reference ~opts t cases =
  Array.map
    (fun c ->
      t.attempted <- t.attempted + 1;
      match learn_untraced ~opts c with
      | m, k -> Some (k, text_of c.subj m)
      | exception e ->
          let e = Printexc.to_string e in
          failure t (c.subj.Subject.name ^ " learn raised " ^ e);
          None)
    cases

(* A cycle learns every case, each followed by [identify_passes]
   identifies of the case's endpoint. Untraced runs learn on the direct
   path ([learn_untraced]); a traced run learns on the pipeline composed
   from public parts ([traced_learn]), whose spans are recorded only
   while [Spans.on], and checks it against [reference]. *)
let learn_workload ~opts ~cases ~reference ~seconds t layers =
  let n = Array.length cases in
  let composed = Option.is_some reference in
  (* per case: learn times, learn+identify times (s) *)
  let learn_s = Array.make n [] and session_s = Array.make n [] in
  let op = ref 0 and peak = ref 0. in
  let session f =
    let id = !op in
    incr op;
    t.attempted <- t.attempted + 1;
    (* every session starts on an empty minor heap, so a short identify
       is not charged for the collection its predecessor left due *)
    Gc.minor ();
    let w0 = Gc.minor_words () and t0 = now () in
    let v =
      try Ok (Spans.with_span sp_op id (fun () -> f id))
      with e -> Error (Printexc.to_string e)
    in
    let dt = now () - t0 in
    t.words <- t.words +. (Gc.minor_words () -. w0);
    t.busy_ns <- t.busy_ns + dt;
    peak := Float.max !peak (heap_mb ());
    if !Spans.on then begin
      let d0 = now () in
      drain_into layers;
      t.wall_ns <- t.wall_ns - (now () - d0)
    end;
    (v, dt)
  in
  let learn i c =
    let name = c.subj.Subject.name in
    let learned, dt =
      session (fun op ->
          if composed then begin
            let r, cache =
              traced_learn ~op ~perturb:opts.perturb_eq c.subj ~seed:c.seed
                (sul_of ~opts c)
            in
            t.rounds <- t.rounds + r.Learn.rounds;
            t.cache_hits <- t.cache_hits + Cache.hits cache;
            t.cache_misses <- t.cache_misses + Cache.misses cache;
            t.cache_nodes <- t.cache_nodes + Cache.size cache;
            (r.Learn.model, counters_of_stats r.Learn.stats)
          end
          else learn_untraced ~opts c)
    in
    t.learns <- t.learns + 1;
    (match learned with
    | Error e -> failure t (name ^ " learn raised " ^ e)
    | Ok (m, k) -> (
        count t k;
        let text = text_of c.subj m in
        check t (text = c.golden.text) (name ^ ": model differs from golden");
        Option.iter
          (fun r ->
            if r <> k then begin
              t.guard_ok <- false;
              failure t (name ^ ": counters differ from learn-stack")
            end)
          c.stack_ref;
        match Option.map (fun r -> r.(i)) reference with
        | Some (Some (k0, text0)) when k0 <> k || text0 <> text ->
            t.guard_ok <- false;
            failure t (name ^ ": traced run differs from untraced run")
        | _ -> ()));
    dt
  in
  let identify c =
    let name = c.subj.Subject.name in
    let identified, dt =
      session (fun op ->
          let sul = sul_of ~opts c in
          let raw =
            Oracle.of_sul (if composed then traced_sul ~op sul else sul)
          in
          let mq = if composed then traced_mq sp_sul_oracle ~op raw else raw in
          let r =
            Spans.with_span sp_identify op (fun () -> Identify.run ~mq c.tree)
          in
          (r, counters_of_stats raw.Oracle.stats))
    in
    (match identified with
    | Error e -> failure t (name ^ " identify raised " ^ e)
    | Ok (r, k) -> (
        count t k;
        t.identifies <- t.identifies + 1;
        t.walk_words <- t.walk_words + r.Identify.walk_words;
        t.confirm_words <- t.confirm_words + r.Identify.confirm_words;
        match r.Identify.outcome with
        | Identify.Known e when e.Library.name = name -> ()
        | _ -> failure t (name ^ ": not identified as itself")));
    dt
  in
  let cycle _ =
    peak := 0.;
    let k = fresh_calibs () in
    let t0 = now () in
    (* Each learn is followed by the identifies of its endpoint, so the
       short identifies sample the machine over the whole cycle, not in
       one burst that a neighbour's load can cover. *)
    let times =
      Array.mapi
        (fun i c ->
          if i mod 3 = 0 then tick k;
          let dl = learn i c in
          (dl, List.init identify_passes (fun _ -> identify c)))
        cases
    in
    tick k;
    t.wall_ns <- t.wall_ns + (now () - t0 - k.calib_ns);
    t.calib_ms <- k.ms @ t.calib_ms;
    t.heap_mb <- !peak :: t.heap_mb;
    (* Each group of three cases is scaled by the calibrations just
       before and after it, so its times follow the machine's speed at
       that moment. *)
    let cal = Array.of_list (List.rev k.ms) in
    Array.iteri
      (fun i (dl, dis) ->
        let g = i / 3 in
        let scale = 2. *. calib_ref_ms /. (cal.(g) +. cal.(g + 1)) in
        let dl = scale *. float_of_int dl in
        let dis = List.map (fun d -> scale *. float_of_int d) dis in
        t.learn_ms <- (dl /. 1e6) :: t.learn_ms;
        t.identify_ms <- List.map (fun d -> d /. 1e6) dis @ t.identify_ms;
        learn_s.(i) <- (dl /. 1e9) :: learn_s.(i);
        session_s.(i) <- ((dl +. sum dis) /. 1e9) :: session_s.(i))
      times
  in
  loop ~seconds cycle;
  (* closed-loop throughput from per-case median latencies *)
  let per_case xs = sum (Array.to_list (Array.map median xs)) in
  ( float_of_int n /. per_case learn_s,
    float_of_int (n * (1 + identify_passes)) /. per_case session_s )

(* --- fleet-mixed --- *)

type fleet = {
  jobs : Service.job array array;  (** variants, run in turn *)
  goldens : (string * golden) list;
  library : Library.t;
  domains : int;
}

(* A balanced fleet: every subject is identified [fleet_identifies]
   times, then learned once, in a fixed order; the workload seed picks
   every job's seed, for [fleet_variants] fleets run in turn. A
   subject's first identify fills its shared cache and the later ones
   mostly read it; the learns come last and mostly insert. *)
let fleet_setup ~(opts : opts) tick =
  let goldens = learn_goldens ~tick in
  let library = library_of goldens in
  ignore (forest_of library);
  let subjects = List.map fst goldens in
  let ops =
    List.concat (List.init fleet_identifies (fun _ -> subjects))
    |> List.map (fun s -> (Service.Identify, s))
  in
  let ops =
    Array.of_list (ops @ List.map (fun s -> (Service.Learn, s)) subjects)
  in
  let size = Array.length ops in
  let seeds = Array.of_list (derive_seeds opts.seed (size * fleet_variants)) in
  let jobs =
    Array.init fleet_variants (fun v ->
        Array.mapi
          (fun j (op, s) ->
            Service.job ~seed:seeds.((v * size) + j) ~algorithm op s)
          ops)
  in
  {
    jobs;
    goldens =
      List.map (fun ((s : Subject.t), g) -> (s.Subject.name, g)) goldens;
    library;
    domains = min 2 (Domain.recommended_domain_count ());
  }

(* A job whose SUL steps and resets are spanned, with the session's
   operation id. The subject name is kept, so sessions still share the
   endpoint's cache. *)
let timed_job ~op (j : Service.job) =
  let s = j.Service.subject in
  let factory ~seed ~workers i =
    traced_sul ~op (s.Subject.factory ~seed ~workers i)
  in
  { j with Service.subject = { s with Subject.factory } }

(* Untraced runs submit the jobs as they are; a traced run submits them
   as [timed_job]s, whose spans are recorded only while [Spans.on]. *)
let fleet_workload ~fleet ~composed ~seconds t layers =
  let rates = ref [] and learn_rates = ref [] in
  let nfleet = ref 0 in
  let cycle k =
    let calibs = [ calibrate (); calibrate () ] in
    let jobs = fleet.jobs.(k mod Array.length fleet.jobs) in
    let base = !nfleet * Array.length jobs in
    incr nfleet;
    let jobs =
      Array.to_list
        (if composed then
           Array.mapi (fun i j -> timed_job ~op:(base + i) j) jobs
         else jobs)
    in
    let njobs = List.length jobs in
    t.attempted <- t.attempted + njobs;
    Gc.minor ();
    let w0 = (Gc.quick_stat ()).Gc.minor_words and t0 = now () in
    let r =
      try
        Service.run ~domains:fleet.domains ~config:Service.default_config
          ~library:fleet.library ~jobs ()
      with e -> Error (Printexc.to_string e)
    in
    let wall = now () - t0 in
    t.words <- t.words +. ((Gc.quick_stat ()).Gc.minor_words -. w0);
    t.heap_mb <- heap_mb () :: t.heap_mb;
    t.wall_ns <- t.wall_ns + wall;
    if !Spans.on then drain_into layers;
    (* this fleet's times, at the reference calibration *)
    let calibs = calibrate () :: calibs in
    t.calib_ms <- calibs @ t.calib_ms;
    let scale = calib_ref_ms /. median calibs in
    match r with
    | Error e ->
        t.failed <- t.failed + njobs;
        prerr_endline ("perfbench: failed: fleet raised " ^ e)
    | Ok r ->
        let learns = ref 0 in
        List.iter
          (fun (s : Service.session) ->
            let name = s.Service.endpoint in
            let dt_ns = int_of_float (s.Service.elapsed_s *. 1e9) in
            t.busy_ns <- t.busy_ns + dt_ns;
            count t
              {
                mq = s.Service.membership_queries;
                sym = s.Service.membership_symbols;
                tw = s.Service.test_words;
              };
            t.engine_hits <- t.engine_hits + s.Service.cache_hits;
            t.engine_misses <- t.engine_misses + s.Service.cache_misses;
            match s.Service.outcome with
            | Service.Learned { canonical; rounds; _ } ->
                incr learns;
                t.learns <- t.learns + 1;
                t.rounds <- t.rounds + rounds;
                t.learn_ms <- (scale *. ms_of_ns dt_ns) :: t.learn_ms;
                check t
                  (canonical = (List.assoc name fleet.goldens).text)
                  (Printf.sprintf
                     "%s (seed %Ld): fleet model differs from golden" name
                     s.Service.s_seed)
            | Service.Identified r -> (
                t.identifies <- t.identifies + 1;
                t.identify_ms <- (scale *. ms_of_ns dt_ns) :: t.identify_ms;
                t.walk_words <- t.walk_words + r.Identify.walk_words;
                t.confirm_words <- t.confirm_words + r.Identify.confirm_words;
                match r.Identify.outcome with
                | Identify.Known e when e.Library.name = name -> ()
                | _ -> failure t (name ^ ": not identified as itself")))
          r.Service.sessions;
        List.iter
          (fun (c : Service.shared_cache) ->
            t.sharded_hits <- t.sharded_hits + c.Service.hits;
            t.sharded_misses <- t.sharded_misses + c.Service.misses)
          r.Service.shared;
        let wall_s = scale *. float_of_int wall /. 1e9 in
        rates := (float_of_int njobs /. wall_s) :: !rates;
        learn_rates := (float_of_int !learns /. wall_s) :: !learn_rates
  in
  loop ~period:(Array.length fleet.jobs) ~seconds cycle;
  (median !learn_rates, median !rates)

(* --- metrics --- *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
(* per session: every attempted learn or identify *)
let per t x = x /. float_of_int (max 1 t.attempted)

(* Times and rates are already at the reference calibration. *)
let end_to_end t ~learns_per_s ~sessions_per_s ~setup_s =
  [
    ("learn_ms_p50", "ms", percentile 0.5 t.learn_ms);
    ("learn_ms_p90", "ms", percentile 0.9 t.learn_ms);
    ("learns_per_s", "1/s", learns_per_s);
    ("identify_ms_p50", "ms", percentile 0.5 t.identify_ms);
    ("identify_ms_p90", "ms", percentile 0.9 t.identify_ms);
    ("sessions_per_s", "1/s", sessions_per_s);
    ("mq_per_op", "count", per t (float_of_int t.mq));
    ("symbols_per_op", "count", per t (float_of_int t.sym));
    ("test_words_per_op", "count", per t (float_of_int t.tw));
    ("alloc_words_per_symbol", "words", t.words /. float_of_int (max 1 t.sym));
    ("peak_heap_mb", "MiB", median t.heap_mb);
    ("setup_s", "s", setup_s);
    ( "ok_ops_pct",
      "%",
      100. *. (1. -. ratio t.failed (max 1 t.attempted)) );
  ]

let per_layer t l ~domains ~overhead_pct =
  let ms k = per t (ms_of_ns l.self_ns.(k)) in
  let calls k = per t (float_of_int l.calls.(k)) in
  let words k = per t l.words.(k) in
  let per_learn x = x /. float_of_int (max 1 t.learns) in
  let per_identify x = x /. float_of_int (max 1 t.identifies) in
  [
    ("sul.step.self_ms", "ms", ms sp_step);
    ("sul.step.calls", "count", calls sp_step);
    ("sul.step.minor_words", "words", words sp_step);
    ("sul.reset.self_ms", "ms", ms sp_reset);
    ("sul.reset.calls", "count", calls sp_reset);
    ("sul.reset.minor_words", "words", words sp_reset);
    ("sul_oracle.self_ms", "ms", ms sp_sul_oracle);
    ("sul_oracle.minor_words", "words", words sp_sul_oracle);
    ("cache.self_ms", "ms", ms sp_cache);
    ("cache.calls", "count", calls sp_cache);
    ("cache.minor_words", "words", words sp_cache);
    ( "cache.hit_ratio",
      "ratio",
      ratio t.cache_hits (t.cache_hits + t.cache_misses) );
    ("cache.nodes", "count", per_learn (float_of_int t.cache_nodes));
    ("eq_oracle.self_ms", "ms", ms sp_eq);
    ("eq_oracle.calls", "count", calls sp_eq);
    ("eq_oracle.minor_words", "words", words sp_eq);
    ("eq_oracle.test_words", "count", per t (float_of_int t.tw));
    ("learn.self_ms", "ms", ms sp_learn);
    ("learn.minor_words", "words", words sp_learn);
    ("learn.rounds", "count", per_learn (float_of_int t.rounds));
    ("identify.walk_words", "count", per_identify (float_of_int t.walk_words));
    ( "identify.confirm_words",
      "count",
      per_identify (float_of_int t.confirm_words) );
    ( "service.busy_ratio",
      "ratio",
      float_of_int t.busy_ns
      /. (float_of_int domains *. float_of_int (max 1 t.wall_ns)) );
    ("service.sul_ms", "ms", per t (ms_of_ns l.sul_ns));
    ("service.other_ms", "ms", per t (ms_of_ns (t.busy_ns - l.sul_ns)));
    ( "cache_sharded.hit_ratio",
      "ratio",
      ratio t.sharded_hits (t.sharded_hits + t.sharded_misses) );
    ("cache_sharded.misses", "count", per t (float_of_int t.sharded_misses));
    ( "engine.cache_hit_ratio",
      "ratio",
      ratio t.engine_hits (t.engine_hits + t.engine_misses) );
    ("bench.calib_ms", "ms", median t.calib_ms);
    ("trace.overhead_pct", "%", overhead_pct);
  ]

let print_result ~correct ~attempted ~failed metrics =
  if not correct then
    prerr_endline "perfbench: guard: a learn differs from its reference";
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, unit, v) ->
      let v = if Float.is_finite v then v else 0. in
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name v unit)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let diagnostics label t ~learns_per_s ~sessions_per_s =
  Printf.eprintf
    "perfbench: %s: %d ops (%d learns, %d identifies), failed_ops_pct=%.3f, \
     learns_per_s=%.3f sessions_per_s=%.3f bench.calib_ms=%.4f\n%!"
    label t.attempted t.learns t.identifies
    (100. *. ratio t.failed (max 1 t.attempted))
    learns_per_s sessions_per_s (median t.calib_ms)

(* --- main --- *)

let main opts =
  let setup, setup_s =
    timed_setup (fun tick ->
        match opts.workload with
        | Fleet_mixed -> `Fleet (fleet_setup ~opts tick)
        | Learn_stack | Learn_model -> `Learn (learn_setup ~opts tick))
  in
  (if opts.wrong_golden then
     (* give the first subject's golden the second subject's model *)
     match setup with
     | `Learn cases -> cases.(0).golden.text <- cases.(1).golden.text
     | `Fleet { goldens = (_, g0) :: (_, g1) :: _; _ } -> g0.text <- g1.text
     | `Fleet _ -> ());
  (* [reference]: learn workloads compose their learns and check them
     against it; [composed]: the fleet submits [timed_job]s. *)
  let run_phase ~reference ~composed ~seconds t layers =
    match setup with
    | `Learn cases ->
        let lps, sps =
          learn_workload ~opts ~cases ~reference ~seconds t layers
        in
        (lps, sps, 1)
    | `Fleet fleet ->
        let lps, sps = fleet_workload ~fleet ~composed ~seconds t layers in
        (lps, sps, fleet.domains)
  in
  let t0 = fresh_tally () in
  if not opts.trace then begin
    let learns_per_s, sessions_per_s, _ =
      run_phase ~reference:None ~composed:false ~seconds:opts.seconds t0
        (fresh_layers ())
    in
    diagnostics "untraced" t0 ~learns_per_s ~sessions_per_s;
    print_result ~correct:t0.guard_ok ~attempted:t0.attempted
      ~failed:t0.failed
      (end_to_end t0 ~learns_per_s ~sessions_per_s ~setup_s)
  end
  else begin
    (* Both halves run the composed pipeline, checked against the direct
       path's learns; the first half records no spans, so the two
       throughputs give the tracing overhead. *)
    let seconds = opts.seconds /. 2. in
    let reference =
      match setup with
      | `Learn cases -> Some (reference ~opts t0 cases)
      | `Fleet _ -> None
    in
    let run_phase = run_phase ~reference ~composed:true ~seconds in
    let lps0, sps0, _ = run_phase t0 (fresh_layers ()) in
    diagnostics "spans off" t0 ~learns_per_s:lps0 ~sessions_per_s:sps0;
    let t = fresh_tally () and layers = fresh_layers () in
    Spans.on := true;
    let lps, sps, domains = run_phase t layers in
    Spans.on := false;
    diagnostics "traced" t ~learns_per_s:lps ~sessions_per_s:sps;
    let base, traced =
      match opts.workload with
      | Fleet_mixed -> (sps0, sps)
      | Learn_stack | Learn_model -> (lps0, lps)
    in
    let overhead_pct = 100. *. ((base /. traced) -. 1.) in
    Option.iter (fun path -> write_spans path layers) opts.spans_out;
    print_result ~correct:(t0.guard_ok && t.guard_ok)
      ~attempted:(t0.attempted + t.attempted)
      ~failed:(t0.failed + t.failed)
      (per_layer t layers ~domains ~overhead_pct)
  end

let usage =
  "perfbench.exe --workload learn-stack|learn-model|fleet-mixed --seed N \
   --seconds S --trace 0|1 [--wrong-golden] [--perturb-eq] \
   [--spans-out FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and spans_out = ref "" in
  let wrong_golden = ref false and perturb_eq = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--wrong-golden", Arg.Set wrong_golden, " corrupt one golden model");
      ("--perturb-eq", Arg.Set perturb_eq, " perturb the traced eq settings");
      ("--spans-out", Arg.Set_string spans_out, " write traced spans here");
    ]
    (fun a -> raise (Arg.Bad a))
    usage;
  let workload =
    match !workload with
    | "learn-stack" -> Learn_stack
    | "learn-model" -> Learn_model
    | "fleet-mixed" -> Fleet_mixed
    | w ->
        prerr_endline ("perfbench: unknown workload " ^ w);
        exit 2
  in
  main
    {
      workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      wrong_golden = !wrong_golden;
      perturb_eq = !perturb_eq;
      spans_out = (if !spans_out = "" then None else Some !spans_out);
    }
