module Mealy = Prognosis_automata.Mealy

type ('i, 'o) transition_stats = {
  source : int;
  input : 'i;
  outcomes : ('o * float) list;
  samples : int;
}

type ('i, 'o) t = {
  skeleton_ : ('i, 'o) Mealy.t;
  stats : ('i, 'o) transition_stats array array; (* [state].[input] *)
}

let estimate ?(samples_per_transition = 30) ~skeleton ~sul () =
  if samples_per_transition < 1 then
    invalid_arg "Stochastic.estimate: need at least one sample";
  let access = Mealy.access_words skeleton in
  let reachable = Mealy.reachable skeleton in
  let inputs = Mealy.inputs skeleton in
  let sample state i =
    let word =
      Prognosis_sul.Sul.encode sul
        (Mealy.decode skeleton (access.(state) @ [ i ]))
    in
    let tally = Hashtbl.create 4 in
    for _ = 1 to samples_per_transition do
      let answer = Prognosis_sul.Sul.query sul word in
      match List.rev answer with
      | last :: _ ->
          let n = try Hashtbl.find tally last with Not_found -> 0 in
          Hashtbl.replace tally last (n + 1)
      | [] -> ()
    done;
    let outcomes =
      Hashtbl.fold
        (fun o n acc ->
          (o, float_of_int n /. float_of_int samples_per_transition) :: acc)
        tally []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    { source = state; input = inputs.(i); outcomes; samples = samples_per_transition }
  in
  let stats =
    Array.init (Mealy.size skeleton) (fun s ->
        Array.init (Array.length inputs) (fun i ->
            if reachable.(s) then sample s i
            else
              { source = s; input = inputs.(i); outcomes = []; samples = 0 }))
  in
  { skeleton_ = skeleton; stats }

let skeleton t = t.skeleton_

let transitions t =
  Array.to_list t.stats |> List.concat_map Array.to_list
  |> List.filter (fun ts -> ts.samples > 0)

let stochastic_transitions t =
  List.filter (fun ts -> List.length ts.outcomes > 1) (transitions t)

let probability t ~state ~input o =
  let i = Mealy.input_index t.skeleton_ input in
  match List.assoc_opt o t.stats.(state).(i).outcomes with
  | Some p -> p
  | None -> 0.0

let to_dot ?(name = "stochastic") ~input_pp ~output_pp t =
  let m = t.skeleton_ in
  let buf = Buffer.create 2048 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "digraph %s {@\n  rankdir=LR;@\n  node [shape=circle];@\n" name;
  Format.fprintf fmt "  __start [shape=none,label=\"\"];@\n  __start -> s%d;@\n"
    (Mealy.initial m);
  let escape label = String.concat "\\\"" (String.split_on_char '"' label) in
  for s = 0 to Mealy.size m - 1 do
    for i = 0 to Mealy.alphabet_size m - 1 do
      let ts = t.stats.(s).(i) in
      if ts.samples > 0 then begin
        let s', _ = Mealy.step_idx m s i in
        let outcome_str =
          String.concat "\\n"
            (List.map
               (fun (o, p) -> Format.asprintf "%a (%.2f)" output_pp o p)
               ts.outcomes)
        in
        let label =
          Format.asprintf "%a /\\n%s" input_pp (Mealy.inputs m).(i) outcome_str
        in
        let attrs =
          if List.length ts.outcomes > 1 then ",color=red,fontcolor=red" else ""
        in
        Format.fprintf fmt "  s%d -> s%d [label=\"%s\"%s];@\n" s s' (escape label)
          attrs
      end
    done
  done;
  Format.fprintf fmt "}@.";
  Buffer.contents buf
