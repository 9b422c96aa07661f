module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
module Rng = Prognosis_sul.Rng
module Oracle = Prognosis_learner.Oracle
module Cache = Prognosis_learner.Cache
module Passive = Prognosis_learner.Passive
module Learn = Prognosis_learner.Learn
module Eq_oracle = Prognosis_learner.Eq_oracle

let counter3 =
  Mealy.make ~size:3 ~initial:0 ~inputs:[| 'a'; 'b' |]
    ~delta:[| [| 1; 0 |]; [| 2; 0 |]; [| 0; 0 |] |]
    ~lambda:[| [| "0"; "r" |]; [| "1"; "r" |]; [| "2"; "r" |] |]

let sample_of words = Passive.sample_of_words (Sul.of_mealy counter3) words

(* --- PTA --- *)

let pta_replays_sample () =
  let sample = sample_of [ [ 'a'; 'a' ]; [ 'a'; 'b'; 'a' ]; [ 'b' ] ] in
  let m = Passive.pta ~inputs:[| 'a'; 'b' |] ~default:"?" sample in
  Alcotest.(check bool) "consistent" true (Passive.consistent m sample)

let pta_inconsistent_sample_rejected () =
  let sample = [ ([ 'a' ], [ "x" ]); ([ 'a'; 'b' ], [ "y"; "z" ]) ] in
  Alcotest.check_raises "conflict"
    (Invalid_argument "Passive: inconsistent sample (nondeterministic outputs)")
    (fun () -> ignore (Passive.pta ~inputs:[| 'a'; 'b' |] ~default:"?" sample))

let pta_length_mismatch_rejected () =
  Alcotest.check_raises "length"
    (Invalid_argument "Passive: input/output length mismatch")
    (fun () ->
      ignore (Passive.pta ~inputs:[| 'a' |] ~default:"?" [ ([ 'a' ], []) ]))

let pta_unknown_symbol_rejected () =
  Alcotest.check_raises "alphabet"
    (Invalid_argument "Passive: symbol outside the alphabet")
    (fun () ->
      ignore (Passive.pta ~inputs:[| 'a' |] ~default:"?" [ ([ 'z' ], [ "x" ]) ]))

let pta_grows_with_sample () =
  let small = Passive.pta ~inputs:[| 'a'; 'b' |] ~default:"?" (sample_of [ [ 'a' ] ]) in
  let large =
    Passive.pta ~inputs:[| 'a'; 'b' |] ~default:"?"
      (sample_of [ [ 'a'; 'a'; 'a'; 'b'; 'a' ] ])
  in
  Alcotest.(check bool) "more states" true (Mealy.size large > Mealy.size small)

(* --- RPNI --- *)

let rpni_consistent () =
  let rng = Rng.create 5L in
  let sample =
    Passive.random_sample ~rng ~inputs:[| 'a'; 'b' |] ~words:60 ~max_len:8
      (Sul.of_mealy counter3)
  in
  let m = Passive.rpni ~inputs:[| 'a'; 'b' |] ~default:"?" sample in
  Alcotest.(check bool) "consistent with sample" true (Passive.consistent m sample)

let rpni_generalizes () =
  (* With a rich enough sample, RPNI recovers the 3-state machine
     exactly. *)
  let rng = Rng.create 11L in
  let sample =
    Passive.random_sample ~rng ~inputs:[| 'a'; 'b' |] ~words:150 ~max_len:10
      (Sul.of_mealy counter3)
  in
  let m = Passive.rpni ~inputs:[| 'a'; 'b' |] ~default:"?" sample in
  Alcotest.(check int) "3 states" 3 (Mealy.size m);
  Alcotest.(check (option (list char))) "equivalent to target" None
    (Mealy.equivalent m counter3)

let rpni_compresses_pta () =
  let rng = Rng.create 13L in
  let sample =
    Passive.random_sample ~rng ~inputs:[| 'a'; 'b' |] ~words:80 ~max_len:8
      (Sul.of_mealy counter3)
  in
  let tree = Passive.pta ~inputs:[| 'a'; 'b' |] ~default:"?" sample in
  let merged = Passive.rpni ~inputs:[| 'a'; 'b' |] ~default:"?" sample in
  Alcotest.(check bool)
    (Printf.sprintf "rpni(%d) << pta(%d)" (Mealy.size merged) (Mealy.size tree))
    true
    (Mealy.size merged * 4 < Mealy.size tree)

let prop_rpni_always_consistent =
  let gen_mealy =
    QCheck2.Gen.(
      let* size = int_range 1 4 in
      let* delta =
        array_size (return size) (array_size (return 2) (int_range 0 (size - 1)))
      in
      let* lambda = array_size (return size) (array_size (return 2) (int_range 0 2)) in
      return (Mealy.make ~size ~initial:0 ~inputs:[| 'a'; 'b' |] ~delta ~lambda))
  in
  QCheck2.Test.make ~count:60 ~name:"rpni output is always sample-consistent"
    QCheck2.Gen.(pair gen_mealy (int_range 0 1000))
    (fun (target, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let sample =
        Passive.random_sample ~rng ~inputs:[| 'a'; 'b' |] ~words:30 ~max_len:6
          (Sul.of_mealy target)
      in
      let m = Passive.rpni ~inputs:[| 'a'; 'b' |] ~default:(-1) sample in
      Passive.consistent m sample)

(* --- passive/active hybrid (paper §8) --- *)

let hybrid_saves_queries () =
  let sul = Prognosis_tcp.Tcp_adapter.sul ~seed:31L () in
  let inputs = Prognosis_tcp.Tcp_alphabet.all in
  (* "Logs": 400 random interactions recorded beforehand. *)
  let rng = Rng.create 17L in
  let logs = Passive.random_sample ~rng ~inputs ~words:400 ~max_len:8 sul in
  let learn ~preload =
    let raw = Oracle.of_sul (Prognosis_tcp.Tcp_adapter.sul ~seed:31L ()) in
    let cache = Cache.create ~inputs () in
    if preload then Passive.preload cache logs;
    let mq = Cache.wrap cache raw in
    let model, _ =
      Prognosis_learner.Ttt.learn ~inputs ~mq
        ~eq:(Eq_oracle.w_method ~extra_states:1 ())
        ()
    in
    (model, raw.Oracle.stats.Oracle.membership_queries)
  in
  let cold_model, cold_queries = learn ~preload:false in
  let warm_model, warm_queries = learn ~preload:true in
  Alcotest.(check (option (list pass))) "same model" None
    (Mealy.equivalent cold_model warm_model);
  Alcotest.(check bool)
    (Printf.sprintf "warm(%d) < cold(%d)" warm_queries cold_queries)
    true (warm_queries < cold_queries)

let () =
  Alcotest.run "passive"
    [
      ( "pta",
        [
          Alcotest.test_case "replays sample" `Quick pta_replays_sample;
          Alcotest.test_case "inconsistent rejected" `Quick pta_inconsistent_sample_rejected;
          Alcotest.test_case "length mismatch" `Quick pta_length_mismatch_rejected;
          Alcotest.test_case "unknown symbol" `Quick pta_unknown_symbol_rejected;
          Alcotest.test_case "grows" `Quick pta_grows_with_sample;
        ] );
      ( "rpni",
        [
          Alcotest.test_case "consistent" `Quick rpni_consistent;
          Alcotest.test_case "generalizes" `Quick rpni_generalizes;
          Alcotest.test_case "compresses" `Quick rpni_compresses_pta;
          QCheck_alcotest.to_alcotest prop_rpni_always_consistent;
        ] );
      ( "hybrid",
        [ Alcotest.test_case "preloaded logs save queries" `Slow hybrid_saves_queries ] );
    ]
