module Mealy = Prognosis_automata.Mealy

type ('i, 'o) sample = ('i list * 'o list) list

let sample_of_words sul words =
  List.map (fun w -> (w, Prognosis_sul.Sul.run sul w)) words

let random_sample ~rng ~inputs ~words ~max_len sul =
  let word () =
    let len = 1 + Prognosis_sul.Rng.int rng max_len in
    List.init len (fun _ -> inputs.(Prognosis_sul.Rng.int rng (Array.length inputs)))
  in
  sample_of_words sul (List.init words (fun _ -> word ()))

(* Partial Mealy machines under construction: -1 marks an absent
   transition, [None] an unobserved output. *)
type 'o partial = {
  mutable size : int;
  mutable delta : int array array; (* [state].[input] *)
  mutable lambda : 'o option array array;
}

let grow p n_inputs =
  let s = p.size in
  if s >= Array.length p.delta then begin
    let cap = max 16 (2 * Array.length p.delta) in
    let delta = Array.init cap (fun i -> if i < s then p.delta.(i) else Array.make n_inputs (-1)) in
    let lambda =
      Array.init cap (fun i -> if i < s then p.lambda.(i) else Array.make n_inputs None)
    in
    p.delta <- delta;
    p.lambda <- lambda
  end;
  p.size <- s + 1;
  s

let build_pta ~inputs sample =
  let n = Array.length inputs in
  let index x =
    let rec loop i =
      if i >= n then invalid_arg "Passive: symbol outside the alphabet"
      else if inputs.(i) = x then i
      else loop (i + 1)
    in
    loop 0
  in
  let p = { size = 0; delta = [||]; lambda = [||] } in
  ignore (grow p n);
  List.iter
    (fun (word, outputs) ->
      if List.length word <> List.length outputs then
        invalid_arg "Passive: input/output length mismatch";
      let state = ref 0 in
      List.iter2
        (fun x o ->
          let i = index x in
          (match p.lambda.(!state).(i) with
          | Some o' when o' <> o ->
              invalid_arg "Passive: inconsistent sample (nondeterministic outputs)"
          | Some _ -> ()
          | None -> p.lambda.(!state).(i) <- Some o);
          let succ = p.delta.(!state).(i) in
          if succ >= 0 then state := succ
          else begin
            let fresh = grow p n in
            p.delta.(!state).(i) <- fresh;
            state := fresh
          end)
        word outputs)
    sample;
  p

let totalize ~inputs ~default p =
  let n = Array.length inputs in
  let delta =
    Array.init p.size (fun s ->
        Array.init n (fun i -> if p.delta.(s).(i) >= 0 then p.delta.(s).(i) else s))
  in
  let lambda =
    Array.init p.size (fun s ->
        Array.init n (fun i ->
            match p.lambda.(s).(i) with Some o -> o | None -> default))
  in
  Mealy.make ~size:p.size ~initial:0 ~inputs ~delta ~lambda

let pta ~inputs ~default sample =
  Mealy.trim (totalize ~inputs ~default (build_pta ~inputs sample))

(* RPNI merging. The merge of [b] into [r] redirects b's parent edge to
   r and folds b's subtree into r, failing on any output conflict. The
   attempt works on a scratch copy; success commits it. *)
exception Conflict

let copy_partial p =
  {
    size = p.size;
    delta = Array.map Array.copy p.delta;
    lambda = Array.map Array.copy p.lambda;
  }

let rec fold p n r b =
  if r <> b then
    for i = 0 to n - 1 do
      (match (p.lambda.(r).(i), p.lambda.(b).(i)) with
      | Some a, Some c -> if a <> c then raise Conflict
      | None, (Some _ as o) -> p.lambda.(r).(i) <- o
      | (Some _ | None), None -> ());
      let sr = p.delta.(r).(i) and sb = p.delta.(b).(i) in
      if sb >= 0 then
        if sr >= 0 then fold p n sr sb else p.delta.(r).(i) <- sb
    done

let try_merge p n parent_edges r b =
  let scratch = copy_partial p in
  (* Redirect every edge into b (in a tree there is exactly one). *)
  List.iter
    (fun (s, i) -> scratch.delta.(s).(i) <- r)
    parent_edges;
  match fold scratch n r b with
  | () -> Some scratch
  | exception Conflict -> None

let rpni ~inputs ~default sample =
  let n = Array.length inputs in
  let p = ref (build_pta ~inputs sample) in
  (* Reachability changes as merges happen; recompute the frontier each
     round. States are processed in their PTA (breadth-ish) order. *)
  let parents_of target =
    let acc = ref [] in
    for s = 0 to !p.size - 1 do
      for i = 0 to n - 1 do
        if !p.delta.(s).(i) = target then acc := (s, i) :: !acc
      done
    done;
    !acc
  in
  let reachable () =
    let seen = Array.make !p.size false in
    let queue = Queue.create () in
    seen.(0) <- true;
    Queue.add 0 queue;
    let order = ref [] in
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      order := s :: !order;
      for i = 0 to n - 1 do
        let t = !p.delta.(s).(i) in
        if t >= 0 && not seen.(t) then begin
          seen.(t) <- true;
          Queue.add t queue
        end
      done
    done;
    List.rev !order
  in
  let red = ref [ 0 ] in
  let continue = ref true in
  while !continue do
    let order = reachable () in
    let blue =
      List.filter
        (fun s ->
          (not (List.mem s !red))
          && List.exists
               (fun r -> Array.exists (fun t -> t = s) !p.delta.(r))
               !red)
        order
    in
    match blue with
    | [] -> continue := false
    | b :: _ -> (
        let parents = parents_of b in
        let rec attempt = function
          | [] -> None
          | r :: rest -> (
              match try_merge !p n parents r b with
              | Some merged -> Some merged
              | None -> attempt rest)
        in
        match attempt !red with
        | Some merged -> p := merged
        | None -> red := !red @ [ b ])
  done;
  Mealy.minimize (totalize ~inputs ~default !p)

let consistent machine sample =
  List.for_all (fun (word, outputs) -> Mealy.run machine word = outputs) sample

let preload cache sample = Cache.restore cache sample
