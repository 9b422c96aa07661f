type ('ai, 'ao, 'ci, 'co) t = {
  reset : unit -> unit;
  step : 'ai -> 'ao * 'ci list * 'co list;
  table : ('ai, 'ao, 'ci, 'co) Oracle_table.t;
  description : string;
}

let create ?(description = "adapter") ~reset ~step () =
  { reset; step; table = Oracle_table.create (); description }

let record t ~ai ~ao ~steps =
  if ai <> [] then
    Oracle_table.add t.table ~abstract_inputs:(List.rev ai)
      ~abstract_outputs:(List.rev ao) ~steps:(List.rev steps)

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
  record t ~ai:!ai ~ao:!ao ~steps:!steps;
  outputs

let to_sul t =
  (* Buffers for the query currently in flight; a reset flushes the
     previous query into the Oracle Table. *)
  let ai = ref [] and ao = ref [] and steps = ref [] in
  let flush () =
    record t ~ai:!ai ~ao:!ao ~steps:!steps;
    ai := [];
    ao := [];
    steps := []
  in
  Sul.make ~description:t.description
    ~reset:(fun () ->
      flush ();
      t.reset ())
    ~step:(fun a ->
      let o, sent, received = t.step a in
      ai := a :: !ai;
      ao := o :: !ao;
      steps := { Oracle_table.sent; received } :: !steps;
      o)
    ()

let to_sul_unrecorded t =
  Sul.make ~description:t.description ~reset:t.reset
    ~step:(fun a ->
      let o, _, _ = t.step a in
      o)
    ()
