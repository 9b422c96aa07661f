type ('ai, 'ao, 'ci, 'co) t = {
  inputs : 'ai array;
  reset : unit -> unit;
  step : 'ai -> 'ao * 'ci list * 'co list;
  table : ('ai, 'ao, 'ci, 'co) Oracle_table.t;
  description : string;
}

let create ?(description = "adapter") ~inputs ~reset ~step () =
  { inputs; reset; step; table = Oracle_table.create (); description }

let query t word =
  t.reset ();
  let ai = ref [] and ao = ref [] and steps = ref [] in
  let outputs =
    List.map
      (fun a ->
        let o, sent, received = t.step a in
        ai := a :: !ai;
        ao := o :: !ao;
        steps := { Oracle_table.sent; received } :: !steps;
        o)
      word
  in
  (match word with
  | [] -> ()
  | _ ->
      Oracle_table.add t.table ~abstract_inputs:(List.rev !ai)
        ~abstract_outputs:(List.rev !ao) ~steps:(List.rev !steps));
  outputs

let to_sul t =
  Sul.make ~description:t.description ~inputs:t.inputs ~reset:t.reset
    ~step:(fun i ->
      let o, _, _ = t.step t.inputs.(i) in
      o)
    ()
