module Rng = Prognosis_sul.Rng
module Adapter = Prognosis_sul.Adapter
module Learn = Prognosis_learner.Learn
module Engine = Prognosis_exec.Engine
module Eq_oracle = Prognosis_learner.Eq_oracle
module Checkpoint = Prognosis_learner.Checkpoint
module Alphabet = Prognosis_dtls.Dtls_alphabet

type model = (Alphabet.symbol, Alphabet.output) Prognosis_automata.Mealy.t

type result = {
  model : model;
  report : Report.t;
  adapter :
    ( Alphabet.symbol,
      Alphabet.output,
      Prognosis_dtls.Dtls_wire.record_,
      Prognosis_dtls.Dtls_wire.record_ )
    Adapter.t;
  client : Prognosis_dtls.Dtls_client.t;
}

let algorithm_name = function Learn.L_star -> "L*" | Learn.Ttt_tree -> "TTT"

(* The DTLS handshake needs five correct symbols in a row; random
   testing practically never finds that path, so the equivalence oracle
   is seeded with scenario words (the QUIC-Tracker approach) before the
   conformance and random phases. *)
let scenarios =
  Alphabet.
    [
      [ Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec; Finished ];
      [
        Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec;
        Finished; App_data; Alert_close; App_data;
      ];
      [
        Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec;
        Finished; Finished; App_data;
      ];
      [ Client_hello; Client_key_exchange; Change_cipher_spec; Finished; App_data ];
    ]

let eq_oracle symbol ~seed =
  let rng = Rng.create (Int64.add seed 7L) in
  Eq_oracle.combine
    [
      Eq_oracle.fixed_words (List.map (List.map symbol) scenarios);
      Eq_oracle.w_method ~extra_states:1 ();
      Eq_oracle.random_words ~rng ~max_tests:400 ~min_len:1 ~max_len:10;
    ]

let learn ?(seed = 1L) ?(algorithm = Learn.Ttt_tree) ?server_config ?exec
    ?checkpoint () =
  let module Metrics = Prognosis_obs.Metrics in
  Metrics.inc
    (Metrics.counter_l Metrics.default "study.learn_runs" [ ("study", "dtls") ]);
  let adapter, client = Prognosis_dtls.Dtls_adapter.create ?server_config ~seed () in
  let result, engine =
    Engine.learn ?config:exec ~algorithm
      ?checkpoint:
        (Option.map
           (Checkpoint.start ~kind:"dtls" ~inputs:Alphabet.all)
           checkpoint)
      ~factory:
        (Engine.seeded_factory
           (fun seed -> Prognosis_dtls.Dtls_adapter.sul ?server_config ~seed ())
           ~seed)
      ~inputs:Alphabet.all ~eq:(eq_oracle Fun.id ~seed) ()
  in
  {
    model = result.Learn.model;
    report =
      Report.of_learn_result ~subject:"dtls" ~algorithm:(algorithm_name algorithm)
        ?exec:(Option.map (fun _ -> Engine.stats_json engine) exec)
        result;
    adapter;
    client;
  }

let model_dot model =
  Prognosis_analysis.Visualize.model_dot ~name:"dtls"
    ~input_pp:(fun fmt s -> Format.pp_print_string fmt (Alphabet.to_string s))
    ~output_pp:(fun fmt o -> Format.pp_print_string fmt (Alphabet.output_to_string o))
    model
