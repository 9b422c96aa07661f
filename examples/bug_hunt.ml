(* Bug hunting with the nondeterminism check (the paper's §6.2.4,
   Issue 2).

   The learner demands deterministic answers, so every query is
   executed repeatedly. A compliant server answers packets on a closed
   connection either always or never with a Stateless Reset. The
   mvfst-like profile answers with probability 0.82 — the exact
   inconsistency Prognosis caught in Facebook's mvfst. Because those
   resets have no back-off, a client can farm reset packets from the
   server for free: a denial-of-service vector.

   Run with: dune exec examples/bug_hunt.exe *)

module Nondet = Prognosis_sul.Nondet
module Alphabet = Prognosis_quic.Quic_alphabet
module Profile = Prognosis_quic.Quic_profile

(* Close the connection by sending the server-only HANDSHAKE_DONE
   frame, then keep probing the corpse. *)
let probe_word = Alphabet.[ Initial_crypto; Handshake_ack_hsd; Short_ack_stream ]

let examine profile =
  Format.printf "--- %s ---@." profile.Profile.name;
  let sul = Prognosis_quic.Quic_adapter.sul ~profile ~seed:2024L () in
  let config = { Nondet.min_runs = 20; max_runs = 120; agreement = 0.99 } in
  (match Nondet.query config sul probe_word with
  | Nondet.Deterministic answer ->
      Format.printf "deterministic; post-close answer: %s@."
        (match List.rev answer with
        | last :: _ -> Alphabet.output_to_string last
        | [] -> "?")
  | Nondet.Nondeterministic observations ->
      Format.printf "NONDETERMINISM DETECTED — %d distinct answers:@."
        (List.length observations);
      List.iter
        (fun o ->
          Format.printf "  %3d× ... %s@." o.Nondet.count
            (match List.rev o.Nondet.answer with
            | last :: _ -> Alphabet.output_to_string last
            | [] -> "?"))
        observations;
      let rate =
        Nondet.frequency observations (fun answer ->
            match List.rev answer with
            | last :: _ -> last = [ Alphabet.abstract_reset ]
            | [] -> false)
      in
      Format.printf
        "reset rate %.0f%% (paper: 82%%). The server burns a Stateless Reset \
         for most probes with no back-off: an attacker can replay one cheap \
         packet to generate server load — a DoS vector.@."
        (100.0 *. rate));
  Format.printf "@."

(* Going beyond the boolean verdict (the paper's §8 "environment
   quantities" direction): learn the modal skeleton of the stochastic
   implementation and annotate every transition with its empirical
   output distribution. *)
let quantify profile =
  Format.printf "--- stochastic model of %s ---@." profile.Profile.name;
  let sul = Prognosis_quic.Quic_adapter.sul ~profile ~seed:4242L () in
  let mq =
    Prognosis_learner.Oracle.of_fun ~inputs:sul.Prognosis_sul.Sul.inputs
      (Prognosis_sul.Nondet.modal_oracle ~runs:41 sul)
  in
  let rng = Prognosis_sul.Rng.create 5L in
  let result =
    Prognosis_learner.Learn.run_mq ~max_rounds:30 ~inputs:Alphabet.all ~mq
      ~eq:
        (Prognosis_learner.Eq_oracle.random_words ~rng ~max_tests:150 ~min_len:1
           ~max_len:6)
      ()
  in
  let skeleton = result.Prognosis_learner.Learn.model in
  let st =
    Prognosis_analysis.Stochastic.estimate ~samples_per_transition:100 ~skeleton
      ~sul ()
  in
  let stochastic = Prognosis_analysis.Stochastic.stochastic_transitions st in
  Format.printf "%d of %d transitions are stochastic:@."
    (List.length stochastic)
    (List.length (Prognosis_analysis.Stochastic.transitions st));
  List.iter
    (fun ts ->
      Format.printf "  s%d on %s:@." ts.Prognosis_analysis.Stochastic.source
        (Alphabet.to_string ts.Prognosis_analysis.Stochastic.input);
      List.iter
        (fun (o, p) ->
          Format.printf "    %.2f %s@." p (Alphabet.output_to_string o))
        ts.Prognosis_analysis.Stochastic.outcomes)
    stochastic;
  (* Render it: stochastic edges come out red with probabilities. *)
  Prognosis_analysis.Visualize.write_file ~path:"mvfst_stochastic.dot"
    (Prognosis_analysis.Stochastic.to_dot ~input_pp:Alphabet.pp
       ~output_pp:Alphabet.pp_output st);
  Format.printf "probability-annotated model written to mvfst_stochastic.dot@."

let () =
  Format.printf
    "Probing post-close behaviour with %s then repeated stream packets@.@."
    (String.concat " + " (List.map Alphabet.to_string probe_word));
  List.iter examine [ Profile.quiche_like; Profile.mvfst_like ];
  quantify Profile.mvfst_like
