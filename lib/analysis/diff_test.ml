module Mealy = Prognosis_automata.Mealy
module Testing = Prognosis_automata.Testing
module Sul = Prognosis_sul.Sul

type ('i, 'o) mismatch = {
  word : 'i list;
  outputs_a : 'o list;
  outputs_b : 'o list;
}

let collect ?(max_mismatches = 10) ~suite ~run_a ~run_b () =
  let rec loop acc count = function
    | [] -> List.rev acc
    | _ when count >= max_mismatches -> List.rev acc
    | word :: rest ->
        let outputs_a = run_a word and outputs_b = run_b word in
        if outputs_a <> outputs_b then
          loop ({ word; outputs_a; outputs_b } :: acc) (count + 1) rest
        else loop acc count rest
  in
  loop [] 0 suite

let run ?max_mismatches ~suite a b =
  collect ?max_mismatches ~suite ~run_a:(Sul.run a) ~run_b:(Sul.run b) ()

let model_guided ?(extra_states = 1) ?max_mismatches ~model sul =
  let suite =
    List.map (Mealy.decode model) (Testing.w_method ~extra_states model)
  in
  collect ?max_mismatches ~suite ~run_a:(Mealy.run model) ~run_b:(Sul.run sul)
    ()

let suite_size ?(extra_states = 1) model =
  List.length (Testing.w_method ~extra_states model)
