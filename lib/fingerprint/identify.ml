module Mealy = Prognosis_automata.Mealy
module Oracle = Prognosis_learner.Oracle
module Jsonx = Prognosis_obs.Jsonx
module Trace = Prognosis_obs.Trace
module Metrics = Prognosis_obs.Metrics

type evidence = {
  word : string list;
  actual : string list;
  expected : string list list;
  stage : string;
}

type outcome = Known of Library.entry | Novel of evidence

type result = {
  outcome : outcome;
  words_asked : int;
  symbols_asked : int;
  walk_words : int;
  confirm_words : int;
}

let m_runs = Metrics.counter Metrics.default "identify.runs"
let m_known = Metrics.counter Metrics.default "identify.known"
let m_novel = Metrics.counter Metrics.default "identify.novel"
let m_walk_words = Metrics.counter Metrics.default "identify.walk_words"

let m_confirm_words =
  Metrics.counter Metrics.default "identify.confirm_words"

(* Walk the tree: one separating word per level, following the branch
   keyed by the observed output word. *)
let rec walk ~(mq : (string, string) Oracle.membership) tree asked =
  match tree with
  | Splitter.Leaf candidate -> Ok candidate
  | Splitter.Node { word; branches } -> (
      let actual = mq.ask word in
      incr asked;
      Metrics.inc m_walk_words;
      match List.assoc_opt actual branches with
      | Some sub -> walk ~mq sub asked
      | None ->
          Error
            {
              word = List.map (Array.get mq.inputs) word;
              actual;
              expected = List.map fst branches;
              stage = "walk";
            })

(* The entry's suite and answers were built with the entry. *)
let confirm ~(mq : (string, string) Oracle.membership)
    (entry : Library.entry) counted =
  let suite = List.map fst entry.confirm in
  counted := List.length suite;
  Metrics.inc ~by:!counted m_confirm_words;
  let answers =
    match mq.ask_batch with
    | Some batch -> batch suite
    | None -> List.map mq.ask suite
  in
  let rec check = function
    | [], [] -> Ok ()
    | (w, predicted) :: ws, a :: as_ ->
        if Oracle.same_answer a predicted then check (ws, as_)
        else
          Error
            {
              word = List.map (Array.get mq.inputs) w;
              actual = a;
              expected = [ predicted ];
              stage = "confirm";
            }
    | _ -> assert false
  in
  check (entry.confirm, answers)

let run ~mq tree =
  Trace.with_span "identify" @@ fun () ->
  Metrics.inc m_runs;
  (* Tree words are positions over the library's alphabet; [mq] is
     asked them through a position map built once. *)
  let mq =
    match Splitter.inputs tree with
    | Some inputs -> Oracle.over ~inputs mq
    | None -> mq
  in
  let stats : Oracle.stats = mq.Oracle.stats in
  let words0 = stats.membership_queries in
  let symbols0 = stats.membership_symbols in
  let walk_asked = ref 0 in
  let confirm_asked = ref 0 in
  let outcome =
    match Trace.with_span "identify.walk" (fun () -> walk ~mq tree walk_asked)
    with
    | Error e -> Novel e
    | Ok None ->
        (* An empty subtree: the library has nothing of this kind, so
           any endpoint is novel by definition, with nothing asked. *)
        Novel { word = []; actual = []; expected = []; stage = "walk" }
    | Ok (Some entry) -> (
        match
          Trace.with_span "identify.confirm"
            ~attrs:[ ("candidate", Jsonx.String entry.name) ]
            (fun () -> confirm ~mq entry confirm_asked)
        with
        | Ok () -> Known entry
        | Error e -> Novel e)
  in
  (match outcome with
  | Known _ -> Metrics.inc m_known
  | Novel _ -> Metrics.inc m_novel);
  {
    outcome;
    words_asked = stats.membership_queries - words0;
    symbols_asked = stats.membership_symbols - symbols0;
    walk_words = !walk_asked;
    confirm_words = !confirm_asked;
  }

let word_json w = Jsonx.List (List.map (fun s -> Jsonx.String s) w)

let evidence_json e =
  Jsonx.Obj
    [
      ("stage", Jsonx.String e.stage);
      ("word", word_json e.word);
      ("actual", word_json e.actual);
      ("expected", Jsonx.List (List.map word_json e.expected));
    ]

let to_json r =
  let outcome_fields =
    match r.outcome with
    | Known entry ->
        [
          ("outcome", Jsonx.String "known");
          ("entry", Jsonx.String entry.name);
          ( "kind",
            Jsonx.String (Prognosis.Persist.kind_to_string entry.kind) );
        ]
    | Novel e ->
        [ ("outcome", Jsonx.String "novel"); ("evidence", evidence_json e) ]
  in
  Jsonx.Obj
    (("schema", Jsonx.String "prognosis.identification/1")
     :: outcome_fields
    @ [
        ("words_asked", Jsonx.Int r.words_asked);
        ("symbols_asked", Jsonx.Int r.symbols_asked);
        ("walk_words", Jsonx.Int r.walk_words);
        ("confirm_words", Jsonx.Int r.confirm_words);
      ])

let pp_word ppf w = Fmt.pf ppf "%a" Fmt.(list ~sep:(any " ") string) w

let pp ppf r =
  (match r.outcome with
  | Known entry -> Fmt.pf ppf "known: %s@," entry.name
  | Novel e ->
      Fmt.pf ppf "novel (diverged during %s)@," e.stage;
      Fmt.pf ppf "  word:   %a@," pp_word e.word;
      Fmt.pf ppf "  output: %a@," pp_word e.actual;
      List.iter (Fmt.pf ppf "  known:  %a@," pp_word) e.expected);
  Fmt.pf ppf "queries: %d words, %d symbols (%d walk + %d confirm)"
    r.words_asked r.symbols_asked r.walk_words r.confirm_words
