module Mealy = Prognosis_automata.Mealy
module Rng = Prognosis_sul.Rng
module Adapter = Prognosis_sul.Adapter
module Oracle_table = Prognosis_sul.Oracle_table
module Learn = Prognosis_learner.Learn
module Engine = Prognosis_exec.Engine
module Eq_oracle = Prognosis_learner.Eq_oracle
module Checkpoint = Prognosis_learner.Checkpoint
module Ext_mealy = Prognosis_synthesis.Ext_mealy
module Synthesizer = Prognosis_synthesis.Synthesizer
module Wire = Prognosis_tcp.Tcp_wire
module Alphabet = Prognosis_tcp.Tcp_alphabet
module Tcp_adapter = Prognosis_tcp.Tcp_adapter

type model = (Alphabet.symbol, Alphabet.output) Mealy.t

type result = {
  model : model;
  report : Report.t;
  adapter : (Alphabet.symbol, Alphabet.output, Wire.segment, Wire.segment) Adapter.t;
}

let algorithm_name = function Learn.L_star -> "L*" | Learn.Ttt_tree -> "TTT"

(* W-method with one extra state plus a seeded random-word sweep; the
   suite never names a symbol, so [_symbol] (the map into the caller's
   symbol type) goes unused. *)
let eq_oracle _symbol ~seed =
  let rng = Rng.create (Int64.add seed 7L) in
  Eq_oracle.combine
    [
      Eq_oracle.w_method ~extra_states:1 ();
      Eq_oracle.random_words ~rng ~max_tests:500 ~min_len:1 ~max_len:12;
    ]

let learn ?(seed = 1L) ?(algorithm = Learn.Ttt_tree) ?server_config ?exec
    ?checkpoint () =
  let module Metrics = Prognosis_obs.Metrics in
  Metrics.inc
    (Metrics.counter_l Metrics.default "study.learn_runs" [ ("study", "tcp") ]);
  (* Learning runs on the factory's SULs; this adapter only answers the
     witness queries ([witness_traces]), so its Oracle Table holds
     exactly what they asked. *)
  let adapter = Tcp_adapter.create ?server_config ~seed () in
  let result, engine =
    Engine.learn ?config:exec ~algorithm
      ?checkpoint:
        (Option.map
           (Checkpoint.start ~kind:"tcp" ~inputs:Alphabet.all)
           checkpoint)
      ~factory:
        (Engine.seeded_factory
           (fun seed -> Tcp_adapter.sul ?server_config ~seed ())
           ~seed)
      ~inputs:Alphabet.all ~eq:(eq_oracle Fun.id ~seed) ()
  in
  {
    model = result.Learn.model;
    report =
      Report.of_learn_result ~subject:"tcp" ~algorithm:(algorithm_name algorithm)
        ?exec:(Option.map (fun _ -> Engine.stats_json engine) exec)
        result;
    adapter;
  }

let input_field_names = [| "seq"; "ack"; "len" |]
let output_field_names = [| "seq"; "ack" |]

let fields_in (seg : Wire.segment) =
  [| seg.Wire.seq; seg.Wire.ack; String.length seg.Wire.payload |]

(* The server's initial sequence number is freshly random per
   connection and therefore inexpressible; only acknowledgement
   numbers are constrained (the paper's models likewise leave such
   parameters as '?'). *)
let fields_out (seg : Wire.segment) =
  [| None; (if seg.Wire.flags.Wire.ack then Some seg.Wire.ack else None) |]

let witness_traces result words =
  List.map
    (fun word ->
      let _ = Adapter.query result.adapter word in
      match Oracle_table.find result.adapter.Adapter.table word with
      | None -> invalid_arg "Tcp_study.witness_traces: query was not recorded"
      | Some entry ->
          List.map2
            (fun (sym, out) (step : _ Oracle_table.step) ->
              let fi =
                match step.Oracle_table.sent with
                | [ seg ] -> fields_in seg
                | _ -> [| 0; 0; 0 |]
              in
              let fo =
                match step.Oracle_table.received with
                | [] -> [| None; None |]
                | seg :: _ -> fields_out seg
              in
              { Ext_mealy.sym_in = sym; fields_in = fi; sym_out = out; fields_out = fo })
            (List.combine entry.Oracle_table.abstract_inputs
               entry.Oracle_table.abstract_outputs)
            entry.Oracle_table.steps)
    words

let synthesize ?(nregs = 1) result words =
  let traces = witness_traces result words in
  let cfg =
    {
      (Synthesizer.default_config ~nregs ~in_arity:3 ~out_arity:2) with
      Synthesizer.consts = [ 0 ];
    }
  in
  Synthesizer.solve cfg ~skeleton:result.model ~traces ()

let model_dot model =
  Prognosis_analysis.Visualize.model_dot ~name:"tcp"
    ~input_pp:(fun fmt s -> Format.pp_print_string fmt (Alphabet.to_string s))
    ~output_pp:(fun fmt o -> Format.pp_print_string fmt (Alphabet.output_to_string o))
    model
