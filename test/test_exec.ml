(* Tests for the query-execution engine (lib/exec): batch planning,
   pooled execution with prefix resume, replica voting / quarantine,
   and observational equivalence against a direct sequential oracle. *)

module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
module Rng = Prognosis_sul.Rng
module Nondet = Prognosis_sul.Nondet
module Oracle = Prognosis_learner.Oracle
module Eq_oracle = Prognosis_learner.Eq_oracle
module Learn = Prognosis_learner.Learn
module Plan = Prognosis_exec.Plan
module Engine = Prognosis_exec.Engine
module Jsonx = Prognosis_obs.Jsonx
open Prognosis

(* --- fixtures --- *)

let counter3 =
  Mealy.make ~size:3 ~initial:0 ~inputs:[| 'a'; 'b' |]
    ~delta:[| [| 1; 0 |]; [| 2; 0 |]; [| 0; 0 |] |]
    ~lambda:[| [| "0"; "r" |]; [| "1"; "r" |]; [| "2"; "r" |] |]

let lock =
  Mealy.make ~size:5 ~initial:0 ~inputs:[| 'a'; 'b' |]
    ~delta:[| [| 1; 0 |]; [| 1; 2 |]; [| 3; 0 |]; [| 4; 4 |]; [| 4; 4 |] |]
    ~lambda:
      [|
        [| "step"; "no" |];
        [| "step"; "step" |];
        [| "open"; "no" |];
        [| "in"; "in" |];
        [| "in"; "in" |];
      |]

(* Oracles are asked position words; the tests write symbols. *)
let ask_symbols (mq : _ Oracle.membership) word =
  mq.Oracle.ask (List.map (Mealy.position mq.Oracle.inputs) word)

(* A random position word over [inputs]. *)
let random_word rng inputs max_len =
  let len = Rng.int rng (max_len + 1) in
  List.init len (fun _ -> Rng.int rng (Array.length inputs))

(* --- planner --- *)

let plan_dedup_and_subsume () =
  let p =
    Plan.build ~compare [ [ 'a'; 'b' ]; [ 'a' ]; [ 'a'; 'b' ]; [ 'c' ] ]
  in
  Alcotest.(check (list (list char))) "maximal runs"
    [ [ 'a'; 'b' ]; [ 'c' ] ] p.Plan.runs;
  Alcotest.(check int) "words" 4 p.Plan.words;
  Alcotest.(check int) "dupes" 1 p.Plan.dupes;
  Alcotest.(check int) "subsumed" 1 p.Plan.subsumed;
  (* Arrival order: ab executes (1 reset, 2 steps), a is a prefix of
     it, the duplicate ab is too, c executes (1 reset, 1 step). *)
  Alcotest.(check int) "baseline resets" 2 p.Plan.baseline_resets;
  Alcotest.(check int) "baseline steps" 3 p.Plan.baseline_steps

let plan_orders_for_sharing () =
  let p = Plan.build ~compare [ [ 'b' ]; [ 'a'; 'a' ]; [ 'a' ]; [ 'a'; 'b' ] ] in
  (* Lexicographic order keeps words sharing a prefix adjacent and
     drops [a] (prefix of its successor). *)
  Alcotest.(check (list (list char))) "sorted maximal"
    [ [ 'a'; 'a' ]; [ 'a'; 'b' ]; [ 'b' ] ] p.Plan.runs

let plan_empty () =
  let p = Plan.build ~compare [] in
  Alcotest.(check (list (list char))) "no runs" [] p.Plan.runs;
  Alcotest.(check int) "no words" 0 p.Plan.words

let plan_all_duplicates () =
  let p = Plan.build ~compare [ [ 'x' ]; [ 'x' ]; [ 'x' ] ] in
  Alcotest.(check (list (list char))) "one run" [ [ 'x' ] ] p.Plan.runs;
  Alcotest.(check int) "dupes" 2 p.Plan.dupes;
  Alcotest.(check int) "one baseline reset" 1 p.Plan.baseline_resets

(* --- pooled execution --- *)

let engine_for ?(config = Engine.default) m =
  Engine.create ~config ~factory:(fun _ -> Sul.of_mealy m) ()

let resume_skips_reset () =
  let e = engine_for counter3 in
  let mq = Engine.membership e in
  Alcotest.(check (list string)) "first" [ "0" ] (ask_symbols mq [ 'a' ]);
  Alcotest.(check (list string)) "extension" [ "0"; "1" ]
    (ask_symbols mq [ 'a'; 'a' ]);
  let s = Engine.stats e in
  Alcotest.(check int) "one resumed run" 1 s.Engine.resumed;
  (* The second run skipped its reset and replayed only the suffix. *)
  Alcotest.(check int) "one reset" 1 s.Engine.resets;
  Alcotest.(check int) "two steps" 2 s.Engine.steps

(* The sequential oracle replays every miss from reset, like
   [Oracle.of_sul]: its worker may be a recording adapter, whose
   Oracle Table delimits queries by resets. *)
let sequential_never_resumes () =
  let e = engine_for ~config:Engine.sequential counter3 in
  let mq = Engine.membership e in
  ignore (ask_symbols mq [ 'a' ]);
  Alcotest.(check (list string)) "extension" [ "0"; "1" ]
    (ask_symbols mq [ 'a'; 'a' ]);
  let s = Engine.stats e in
  Alcotest.(check int) "no resumed run" 0 s.Engine.resumed;
  Alcotest.(check int) "two resets" 2 s.Engine.resets;
  Alcotest.(check int) "three steps" 3 s.Engine.steps

let baseline_counts_cache_hits () =
  let e = engine_for counter3 in
  let mq = Engine.membership e in
  ignore (ask_symbols mq [ 'a'; 'b' ]);
  ignore (ask_symbols mq [ 'a' ]);
  (* cache hit: no run *)
  let s = Engine.stats e in
  Alcotest.(check int) "baseline resets" 2 s.Engine.baseline_resets;
  Alcotest.(check int) "baseline steps" 3 s.Engine.baseline_steps;
  Alcotest.(check int) "actual resets" 1 s.Engine.resets;
  Alcotest.(check int) "saved a reset" 1 (Engine.saved_resets e);
  Alcotest.(check int) "saved a step" 1 (Engine.saved_steps e)

(* Pooled, batched execution answers exactly like a direct sequential
   oracle over one SUL instance — on single asks and on batches, for
   one worker and for four. *)
let observational_equivalence () =
  let reference = Sul.of_mealy lock in
  List.iter
    (fun workers ->
      let config = { Engine.default with Engine.workers } in
      let e = engine_for ~config lock in
      let mq = Engine.membership e in
      let rng = Rng.create 11L in
      for _ = 1 to 500 do
        let w = random_word rng (Mealy.inputs lock) 8 in
        Alcotest.(check (list string))
          (Printf.sprintf "ask, %d workers" workers)
          (Sul.query reference w) (mq.Oracle.ask w)
      done;
      let batch = Option.get mq.Oracle.ask_batch in
      for _ = 1 to 10 do
        let words =
          List.init 50 (fun _ -> random_word rng (Mealy.inputs lock) 8)
        in
        List.iter2
          (fun w a ->
            Alcotest.(check (list string))
              (Printf.sprintf "batch, %d workers" workers)
              (Sul.query reference w) a)
          words (batch words)
      done)
    [ 1; 4 ]

let parallel_equivalence () =
  let reference = Sul.of_mealy lock in
  let config = { Engine.default with Engine.workers = 4; parallel = true } in
  let e = engine_for ~config lock in
  let mq = Engine.membership e in
  let batch = Option.get mq.Oracle.ask_batch in
  let rng = Rng.create 23L in
  for _ = 1 to 5 do
    let words =
      List.init 100 (fun _ -> random_word rng (Mealy.inputs lock) 8)
    in
    List.iter2
      (fun w a ->
        Alcotest.(check (list string)) "parallel batch"
          (Sul.query reference w) a)
      words (batch words)
  done;
  Alcotest.(check bool) "all workers ran" true
    (Array.for_all (fun r -> r > 0) (Engine.worker_runs e))

(* Pooled learning produces the same minimal model as direct learning,
   for both algorithms. *)
let pooled_learning_equivalent () =
  List.iter
    (fun algorithm ->
      let config = { Engine.default with Engine.workers = 4 } in
      let e = engine_for ~config lock in
      let rng = Rng.create 5L in
      let eq =
        Eq_oracle.combine
          [
            Eq_oracle.w_method ~extra_states:1 ();
            Eq_oracle.random_words ~rng ~max_tests:200 ~min_len:1 ~max_len:8;
          ]
      in
      let r =
        Learn.run_mq ~algorithm ~inputs:(Mealy.inputs lock)
          ~cache_stats:(fun () -> Engine.cache_stats e)
          ~mq:(Engine.membership e) ~eq ()
      in
      Alcotest.(check (option (list char))) "equivalent" None
        (Mealy.equivalent r.Learn.model lock);
      Alcotest.(check int) "minimal"
        (Mealy.size (Mealy.minimize lock))
        (Mealy.size r.Learn.model))
    [ Learn.L_star; Learn.Ttt_tree ]

(* --- robustness: replicas, voting, quarantine --- *)

(* A worker that always answers "LIE" is outvoted by the three honest
   workers, struck, and quarantined — and learning still converges to
   the correct model. *)
let adversarial_worker_quarantined () =
  let liar () =
    let honest = Sul.of_mealy lock in
    Sul.make ~description:"liar" ~inputs:honest.Sul.inputs
      ~reset:honest.Sul.reset
      ~step:(fun x ->
        ignore (honest.Sul.step x);
        "LIE")
      ()
  in
  let config =
    { Engine.default with Engine.workers = 4; replicas = 2; max_strikes = 2 }
  in
  let e =
    Engine.create ~config
      ~factory:(fun i -> if i = 2 then liar () else Sul.of_mealy lock)
      ()
  in
  let rng = Rng.create 17L in
  let eq =
    Eq_oracle.combine
      [
        Eq_oracle.w_method ~extra_states:1 ();
        Eq_oracle.random_words ~rng ~max_tests:200 ~min_len:1 ~max_len:8;
      ]
  in
  let r =
    Learn.run_mq ~inputs:(Mealy.inputs lock)
      ~cache_stats:(fun () -> Engine.cache_stats e)
      ~mq:(Engine.membership e) ~eq ()
  in
  Alcotest.(check (option (list char))) "correct model despite liar" None
    (Mealy.equivalent r.Learn.model lock);
  let s = Engine.stats e in
  Alcotest.(check bool) "saw disagreements" true (s.Engine.disagreements > 0);
  Alcotest.(check bool) "quarantined the liar" true (s.Engine.quarantines >= 1)

(* Two workers that answer differently can produce no majority: the
   pool as a whole is nondeterministic and says so. *)
let no_majority_raises () =
  let config = { Engine.default with Engine.workers = 2; replicas = 2 } in
  let e =
    Engine.create ~config
      ~factory:(fun i ->
        Sul.make ~inputs:[| 'a' |] ~reset:(fun () -> ())
          ~step:(fun _ -> string_of_int i)
          ())
      ()
  in
  let mq = Engine.membership e in
  match ask_symbols mq [ 'a' ] with
  | _ -> Alcotest.fail "expected Nondeterministic_sul"
  | exception Nondet.Nondeterministic_sul _ -> ()

(* Replicated answers that agree do not disturb the result. *)
let replicas_agreeing () =
  let config = { Engine.default with Engine.workers = 3; replicas = 2 } in
  let e = engine_for ~config counter3 in
  let mq = Engine.membership e in
  Alcotest.(check (list string)) "answer" [ "0"; "1"; "2" ]
    (ask_symbols mq [ 'a'; 'a'; 'a' ]);
  let s = Engine.stats e in
  Alcotest.(check int) "extra replica run" 1 s.Engine.vote_runs;
  Alcotest.(check int) "no disagreement" 0 s.Engine.disagreements

let invalid_configs () =
  let factory _ = Sul.of_mealy counter3 in
  Alcotest.check_raises "workers >= 1"
    (Invalid_argument "Engine.create: workers must be >= 1") (fun () ->
      ignore
        (Engine.create ~config:{ Engine.default with Engine.workers = 0 }
           ~factory ()));
  Alcotest.check_raises "replicas <= workers"
    (Invalid_argument "Engine.create: replicas cannot exceed workers")
    (fun () ->
      ignore
        (Engine.create
           ~config:{ Engine.default with Engine.workers = 2; replicas = 3 }
           ~factory ()))

(* --- checkpointable pool state --- *)

let freeze_thaw_roundtrip () =
  let config = { Engine.default with Engine.workers = 3 } in
  let e = engine_for ~config counter3 in
  let mq = Engine.membership e in
  ignore (ask_symbols mq [ 'a' ]);
  ignore (ask_symbols mq [ 'b' ]);
  ignore (ask_symbols mq [ 'a'; 'a' ]);
  let blob = Engine.freeze e in
  let e' = engine_for ~config counter3 in
  Engine.thaw e' blob;
  Alcotest.(check (array int))
    "worker runs restored" (Engine.worker_runs e) (Engine.worker_runs e');
  Alcotest.(check (list int))
    "quarantines restored" (Engine.quarantined e) (Engine.quarantined e')

let thaw_guards () =
  let e = engine_for ~config:{ Engine.default with Engine.workers = 3 } counter3 in
  let blob = Engine.freeze e in
  let smaller =
    engine_for ~config:{ Engine.default with Engine.workers = 2 } counter3
  in
  Alcotest.check_raises "pool size guard"
    (Invalid_argument
       "Engine.thaw: pool size changed (checkpointed 3 workers, pool has 2)")
    (fun () -> Engine.thaw smaller blob);
  Alcotest.check_raises "foreign blob"
    (Invalid_argument "Engine.thaw: unreadable state blob") (fun () ->
      Engine.thaw smaller "gibberish")

let external_cache_short_circuits () =
  (* A pre-warmed cache (a checkpoint session's) answers without
     touching the pool — the mechanism behind crash-free resume. *)
  let cache = Prognosis_learner.Cache.create () in
  Prognosis_learner.Cache.insert cache [ 0; 0 ] [ "0"; "1" ];
  let e =
    Engine.create ~cache ~factory:(fun _ -> Sul.of_mealy counter3) ()
  in
  let mq = Engine.membership e in
  Alcotest.(check (list string)) "cached answer" [ "0"; "1" ]
    (ask_symbols mq [ 'a'; 'a' ]);
  Alcotest.(check int) "no pool run" 0 (Engine.stats e).Engine.runs;
  Alcotest.(check (list string)) "uncached answer" [ "0"; "r" ]
    (ask_symbols mq [ 'a'; 'b' ]);
  Alcotest.(check int) "one pool run" 1 (Engine.stats e).Engine.runs

(* --- end-to-end: the TCP study through the pool --- *)

let exec_field e k =
  match Jsonx.member k e with
  | Some v -> Option.value ~default:0 (Jsonx.to_int_opt v)
  | None -> Alcotest.failf "exec stats missing %S" k

(* The acceptance bar of the exec subsystem: pooled + batched learning
   of the TCP model matches the sequential oracle's model exactly and
   cuts resets+steps by at least 25%% against the no-reuse sequential
   oracle (every query executed directly, one reset per query). *)
let tcp_study_savings () =
  let direct = Tcp_study.learn () in
  let pooled =
    Tcp_study.learn
      ~exec:{ Engine.default with Engine.workers = 4; batch = true }
      ()
  in
  (match
     Mealy.equivalent direct.Tcp_study.model pooled.Tcp_study.model
   with
  | None -> ()
  | Some w ->
      Alcotest.failf "models differ on a %d-symbol word" (List.length w));
  let e =
    match pooled.Tcp_study.report.Report.exec with
    | Some e -> e
    | None -> Alcotest.fail "pooled report has no exec section"
  in
  let actual = exec_field e "resets" + exec_field e "steps" in
  let baseline =
    exec_field e "baseline_resets" + exec_field e "baseline_steps"
  in
  Alcotest.(check bool)
    (Printf.sprintf "saved >= 25%% (actual %d vs baseline %d)" actual baseline)
    true
    (4 * actual <= 3 * baseline)

let quic_study_pooled () =
  let profile = Prognosis_quic.Quic_profile.quiche_like in
  let direct = Quic_study.learn ~profile () in
  let pooled =
    Quic_study.learn
      ~exec:{ Engine.default with Engine.workers = 4; batch = true }
      ~profile ()
  in
  (match
     Mealy.equivalent direct.Quic_study.model pooled.Quic_study.model
   with
  | None -> ()
  | Some w ->
      Alcotest.failf "models differ on a %d-symbol word" (List.length w));
  let e = Option.get pooled.Quic_study.report.Report.exec in
  let actual = exec_field e "resets" + exec_field e "steps" in
  let baseline =
    exec_field e "baseline_resets" + exec_field e "baseline_steps"
  in
  Alcotest.(check bool)
    (Printf.sprintf "saved >= 25%% (actual %d vs baseline %d)" actual baseline)
    true
    (4 * actual <= 3 * baseline)

(* The default study learn is the sequential engine over one factory
   SUL; it must ask exactly what [Learn.run]'s direct path over the
   same SUL asks. *)
let default_learn_is_direct_path () =
  let seed = 651194124L in
  let server_config =
    {
      Prognosis_dtls.Dtls_server.default_config with
      Prognosis_dtls.Dtls_server.require_cookie = false;
    }
  in
  let study = Dtls_study.learn ~seed ~server_config () in
  let direct =
    Learn.run ~inputs:Prognosis_dtls.Dtls_alphabet.all
      ~sul:(Prognosis_dtls.Dtls_adapter.sul ~server_config ~seed ())
      ~eq:(Dtls_study.eq_oracle Fun.id ~seed)
      ()
  in
  let r = study.Dtls_study.report in
  Alcotest.(check bool) "same model" true
    (Mealy.equivalent study.Dtls_study.model direct.Learn.model = None);
  Alcotest.(check (list int)) "same counters"
    [
      direct.Learn.stats.Oracle.membership_queries;
      direct.Learn.stats.Oracle.membership_symbols;
      direct.Learn.stats.Oracle.test_words;
      direct.Learn.cache_hits;
    ]
    [
      r.Report.membership_queries;
      r.Report.membership_symbols;
      r.Report.test_words;
      r.Report.cache_hits;
    ]

let () =
  Alcotest.run "exec"
    [
      ( "plan",
        [
          Alcotest.test_case "dedup and subsume" `Quick plan_dedup_and_subsume;
          Alcotest.test_case "prefix-sharing order" `Quick
            plan_orders_for_sharing;
          Alcotest.test_case "empty batch" `Quick plan_empty;
          Alcotest.test_case "all duplicates" `Quick plan_all_duplicates;
        ] );
      ( "pool",
        [
          Alcotest.test_case "resume skips reset" `Quick resume_skips_reset;
          Alcotest.test_case "sequential never resumes" `Quick
            sequential_never_resumes;
          Alcotest.test_case "baseline counts hits" `Quick
            baseline_counts_cache_hits;
          Alcotest.test_case "observational equivalence" `Quick
            observational_equivalence;
          Alcotest.test_case "parallel equivalence" `Quick parallel_equivalence;
          Alcotest.test_case "pooled learning" `Quick pooled_learning_equivalent;
          Alcotest.test_case "invalid configs" `Quick invalid_configs;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "adversarial worker" `Quick
            adversarial_worker_quarantined;
          Alcotest.test_case "no majority" `Quick no_majority_raises;
          Alcotest.test_case "agreeing replicas" `Quick replicas_agreeing;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "freeze/thaw roundtrip" `Quick freeze_thaw_roundtrip;
          Alcotest.test_case "thaw guards" `Quick thaw_guards;
          Alcotest.test_case "external cache" `Quick external_cache_short_circuits;
        ] );
      ( "studies",
        [
          Alcotest.test_case "tcp savings >= 25%" `Slow tcp_study_savings;
          Alcotest.test_case "quic pooled" `Slow quic_study_pooled;
          Alcotest.test_case "default learn == direct path" `Slow
            default_learn_is_direct_path;
        ] );
    ]
