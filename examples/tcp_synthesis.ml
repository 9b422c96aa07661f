(* Register synthesis over the TCP Oracle Table (the paper's §4.3 and
   Figure 3(c)): enrich the learned abstract handshake model with
   sequence/acknowledgement-number behaviour mined from concrete
   traces. Learning records nothing; the witness words below are asked
   through the study's adapter after learning ([Tcp_study.synthesize]
   runs them with [Adapter.query]), and the Oracle Table holds exactly
   their exchanges.

   The synthesized terms recover the classic invariants:
   - the SYN+ACK acknowledges seq+1 of the client's SYN,
   - data ACKs track the received payload length,
   without anyone writing TCP arithmetic by hand — the constraint
   solver picks the terms that explain the witness traces.

   Run with: dune exec examples/tcp_synthesis.exe *)

module Mealy = Prognosis_automata.Mealy
module Ext_mealy = Prognosis_synthesis.Ext_mealy
module Term = Prognosis_synthesis.Term
module Alphabet = Prognosis_tcp.Tcp_alphabet
open Prognosis

let () =
  let result = Tcp_study.learn ~seed:7L () in
  Format.printf "abstract skeleton: %a@.@." Report.pp result.Tcp_study.report;

  let words =
    Alphabet.
      [
        [ Syn; Ack; Ack_psh; Ack_psh ];
        [ Syn; Ack_psh; Fin_ack ];
        [ Syn; Ack; Fin_ack; Ack ];
        [ Syn; Ack; Ack_psh; Fin_ack; Ack; Ack ];
      ]
  in
  match Tcp_study.synthesize result words with
  | Error e -> failwith e
  | Ok machine ->
      let term_str = function
        | None -> "?"
        | Some t ->
            Term.to_string ~names_in:Tcp_study.input_field_names
              ~names_out:Tcp_study.output_field_names t
      in
      Format.printf "synthesized output terms (state, input -> seq, ack):@.";
      let m = result.Tcp_study.model in
      for s = 0 to Mealy.size m - 1 do
        Array.iter
          (fun sym ->
            let seq_t = Ext_mealy.output_term machine ~state:s ~input:sym ~field:0 in
            let ack_t = Ext_mealy.output_term machine ~state:s ~input:sym ~field:1 in
            if seq_t <> None || ack_t <> None then
              Format.printf "  s%d, %-18s -> seq=%s ack=%s@." s
                (Alphabet.to_string sym) (term_str seq_t) (term_str ack_t))
          (Mealy.inputs m)
      done;
      Format.printf
        "@.reading: on a SYN in the initial state the server acknowledges \
         seq+1 — the Figure 3(c) register pattern, recovered automatically.@.";
      Prognosis_analysis.Visualize.write_file ~path:"tcp_extended.dot"
        (Ext_mealy.to_dot
           ~input_pp:(fun fmt s -> Format.pp_print_string fmt (Alphabet.to_string s))
           ~output_pp:(fun fmt o ->
             Format.pp_print_string fmt (Alphabet.output_to_string o))
           ~names_in:Tcp_study.input_field_names
           ~names_out:Tcp_study.output_field_names machine);
      Format.printf "extended machine written to tcp_extended.dot@."
