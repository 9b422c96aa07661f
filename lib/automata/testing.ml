let state_cover m =
  let words = Mealy.access_words m in
  let seen = Mealy.reachable m in
  let acc = ref [] in
  for s = Mealy.size m - 1 downto 0 do
    if seen.(s) then acc := words.(s) :: !acc
  done;
  !acc

let transition_cover m =
  let words = Mealy.access_words m in
  let seen = Mealy.reachable m in
  let acc = ref [] in
  for s = Mealy.size m - 1 downto 0 do
    if seen.(s) then
      for i = Mealy.alphabet_size m - 1 downto 0 do
        acc := (words.(s) @ [ i ]) :: !acc
      done
  done;
  !acc

let middle_words alphabet k =
  let symbols = List.init alphabet Fun.id in
  let rec extend words len acc =
    if len = 0 then acc
    else
      let longer =
        List.concat_map (fun w -> List.map (fun x -> x :: w) symbols) words
      in
      extend longer (len - 1) (acc @ List.map List.rev longer)
  in
  [] :: extend [ [] ] k []

(* First occurrences in order. Suite words are position words, so the
   words seen so far are marked in a trie with one child slot per
   input: no word is hashed. *)
type seen = { mutable last : bool; kids : seen option array }

let dedup alphabet words =
  let node () = { last = false; kids = Array.make alphabet None } in
  let root = node () in
  let rec mark n = function
    | [] ->
        let fresh = not n.last in
        n.last <- true;
        fresh
    | i :: rest -> (
        match n.kids.(i) with
        | Some k -> mark k rest
        | None ->
            let k = node () in
            n.kids.(i) <- Some k;
            mark k rest)
  in
  List.filter (mark root) words

let w_method ?(extra_states = 0) m =
  let p = transition_cover m in
  let mid = middle_words (Mealy.alphabet_size m) extra_states in
  let w = Mealy.characterizing_set m in
  let suite =
    List.concat_map
      (fun prefix ->
        List.concat_map
          (fun middle -> List.map (fun suffix -> prefix @ middle @ suffix) w)
          mid)
      p
  in
  dedup (Mealy.alphabet_size m) suite

(* Per-state identification set: words from the characterizing set that
   distinguish this state from some other state. *)
let identification_sets m =
  let p = Mealy.pack m in
  let w = Mealy.characterizing_set m in
  Array.init (Mealy.size m) (fun s ->
      List.filter
        (fun word ->
          let out_s = Mealy.Packed.run_from p s word in
          let differs = ref false in
          for t = 0 to Mealy.size m - 1 do
            if t <> s && Mealy.Packed.run_from p t word <> out_s then
              differs := true
          done;
          !differs)
        w)

let wp_method ?(extra_states = 0) m =
  let ids = identification_sets m in
  let w = Mealy.characterizing_set m in
  let mid = middle_words (Mealy.alphabet_size m) extra_states in
  (* Phase 1: state cover × middles × W. *)
  let phase1 =
    List.concat_map
      (fun prefix ->
        List.concat_map
          (fun middle -> List.map (fun suffix -> prefix @ middle @ suffix) w)
          mid)
      (state_cover m)
  in
  (* Phase 2: remaining transition-cover words × middles × W_{target}. *)
  let sc = state_cover m in
  let phase2 =
    List.concat_map
      (fun prefix ->
        if List.mem prefix sc then []
        else
          List.concat_map
            (fun middle ->
              let target =
                Mealy.Packed.state_after (Mealy.pack m) (prefix @ middle)
              in
              let id = ids.(target) in
              let id = if id = [] then [ [] ] else id in
              List.map (fun suffix -> prefix @ middle @ suffix) id)
            mid)
      (transition_cover m)
  in
  dedup (Mealy.alphabet_size m) (phase1 @ phase2)

let suite_size suite = List.length suite
let suite_symbols suite = List.fold_left (fun n w -> n + List.length w) 0 suite
