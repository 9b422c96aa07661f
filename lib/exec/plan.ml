let rec is_prefix p w =
  match (p, w) with
  | [], _ -> true
  | x :: p', y :: w' -> x = y && is_prefix p' w'
  | _ :: _, [] -> false

type 'i t = {
  runs : 'i list list;
  words : int;
  dupes : int;
  subsumed : int;
  baseline_resets : int;
  baseline_steps : int;
}

(* [compare] is lexicographic, so after sorting a word is a strict
   prefix of some other planned word iff it is a prefix of its
   immediate successor: any word sorting between a prefix and its
   extension must itself share that prefix. *)
let build ~compare words_list =
  let words = List.length words_list in
  let sorted = List.sort compare words_list in
  let rec uniq = function
    | [] -> []
    | [ w ] -> [ w ]
    | w :: (w' :: _ as rest) -> if w = w' then uniq rest else w :: uniq rest
  in
  let distinct = uniq sorted in
  let rec maximal = function
    | [] -> []
    | [ w ] -> [ w ]
    | w :: (w' :: _ as rest) ->
        if is_prefix w w' then maximal rest else w :: maximal rest
  in
  let runs = maximal distinct in
  let dupes = words - List.length distinct in
  let subsumed = List.length distinct - List.length runs in
  (* What a sequential cached oracle would have spent on this batch:
     taking the words in arrival order, a word costs nothing once it is
     a prefix of an already-executed word, else one reset plus one step
     per symbol. *)
  let baseline_resets = ref 0 and baseline_steps = ref 0 in
  let executed = ref [] in
  List.iter
    (fun w ->
      if not (List.exists (fun u -> is_prefix w u) !executed) then begin
        incr baseline_resets;
        baseline_steps := !baseline_steps + List.length w;
        executed := w :: !executed
      end)
    words_list;
  {
    runs;
    words;
    dupes;
    subsumed;
    baseline_resets = !baseline_resets;
    baseline_steps = !baseline_steps;
  }
