type ('i, 'o) t = {
  inputs : 'i array;
  reset : unit -> unit;
  step : int -> 'o;
  description : string;
}

let make ?(description = "sul") ~inputs ~reset ~step () =
  { inputs; reset; step; description }

let query sul word =
  sul.reset ();
  List.map sul.step word

let encode sul word =
  let index x =
    try Prognosis_automata.Mealy.position sul.inputs x
    with Not_found ->
      invalid_arg
        (Printf.sprintf "Sul.encode: a symbol is not in the %s alphabet"
           sul.description)
  in
  List.map index word

let run sul word = query sul (encode sul word)

let of_mealy m =
  let module Mealy = Prognosis_automata.Mealy in
  let state = ref (Mealy.initial m) in
  {
    inputs = Mealy.inputs m;
    reset = (fun () -> state := Mealy.initial m);
    step =
      (fun i ->
        let s = !state in
        state := m.Mealy.delta.(s).(i);
        m.Mealy.lambda.(s).(i));
    description = "mealy";
  }

let relabel ~input ~output sul =
  {
    inputs = Array.map input sul.inputs;
    reset = sul.reset;
    step = (fun i -> output (sul.step i));
    description = sul.description;
  }

let counting sul =
  let resets = ref 0 and steps = ref 0 in
  let wrapped =
    {
      sul with
      reset =
        (fun () ->
          incr resets;
          sul.reset ());
      step =
        (fun x ->
          incr steps;
          sul.step x);
    }
  in
  (wrapped, fun () -> (!resets, !steps))
