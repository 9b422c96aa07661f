module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace

type config = { min_runs : int; max_runs : int; agreement : float }

let default = { min_runs = 3; max_runs = 50; agreement = 0.95 }

type 'o observation = { answer : 'o list; count : int }

type 'o verdict =
  | Deterministic of 'o list
  | Nondeterministic of 'o observation list

let tally answers =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let n = try Hashtbl.find tbl a with Not_found -> 0 in
      Hashtbl.replace tbl a (n + 1))
    answers;
  let obs = Hashtbl.fold (fun answer count acc -> { answer; count } :: acc) tbl [] in
  List.sort (fun a b -> compare b.count a.count) obs

let m_checks = Metrics.counter Metrics.default "nondet.checks"
let m_runs = Metrics.counter Metrics.default "nondet.sul_runs"
let m_retries = Metrics.counter Metrics.default "nondet.retries"
let m_nondet = Metrics.counter Metrics.default "nondet.nondeterministic"

let query_positions cfg sul word =
  if cfg.min_runs < 1 then invalid_arg "Nondet.query: min_runs must be >= 1";
  Metrics.inc m_checks;
  let answers = ref [] in
  let run () =
    Metrics.inc m_runs;
    answers := Sul.query sul word :: !answers
  in
  for _ = 1 to cfg.min_runs do
    run ()
  done;
  let all_equal l =
    match l with [] -> true | x :: rest -> List.for_all (( = ) x) rest
  in
  if all_equal !answers then Deterministic (List.hd !answers)
  else begin
    (* Disagreement among the first min_runs executions: retry up to
       the run budget and take a sufficiently dominant plurality. *)
    let retries = cfg.max_runs - List.length !answers in
    if retries > 0 then Metrics.inc ~by:retries m_retries;
    if Trace.enabled () then
      Trace.event
        ~attrs:
          [
            ("word_len", Prognosis_obs.Jsonx.Int (List.length word));
            ("min_runs", Prognosis_obs.Jsonx.Int cfg.min_runs);
            ("extra_runs", Prognosis_obs.Jsonx.Int (max retries 0));
          ]
        "nondet.retry";
    while List.length !answers < cfg.max_runs do
      run ()
    done;
    let obs = tally !answers in
    let total = List.length !answers in
    match obs with
    | best :: _ when float_of_int best.count /. float_of_int total >= cfg.agreement ->
        Deterministic best.answer
    | _ ->
        Metrics.inc m_nondet;
        if Trace.enabled () then
          Trace.event
            ~attrs:
              [
                ("word_len", Prognosis_obs.Jsonx.Int (List.length word));
                ("variants", Prognosis_obs.Jsonx.Int (List.length obs));
                ("runs", Prognosis_obs.Jsonx.Int total);
              ]
            "nondet.verdict_nondeterministic";
        Nondeterministic obs
  end

let query cfg sul word = query_positions cfg sul (Sul.encode sul word)

let distribution ~runs sul word =
  let word = Sul.encode sul word in
  let answers = List.init runs (fun _ -> Sul.query sul word) in
  tally answers

let frequency obs pred =
  let total = List.fold_left (fun n o -> n + o.count) 0 obs in
  let hits =
    List.fold_left (fun n o -> if pred o.answer then n + o.count else n) 0 obs
  in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

exception Nondeterministic_sul of string

let deterministic_query cfg ~pp sul word =
  match query_positions cfg sul word with
  | Deterministic answer -> answer
  | Nondeterministic obs ->
      let variants = List.length obs in
      raise
        (Nondeterministic_sul
           (Printf.sprintf "query %s produced %d distinct answers"
              (pp (List.map (fun i -> sul.Sul.inputs.(i)) word))
              variants))

let plurality_query ~runs sul word =
  if runs < 1 then invalid_arg "Nondet.plurality_query: runs must be >= 1";
  let word = Sul.encode sul word in
  let answers = List.init runs (fun _ -> Sul.query sul word) in
  match tally answers with
  | best :: _ -> best.answer
  | [] -> assert false

let modal_oracle ~runs sul =
  if runs < 1 then invalid_arg "Nondet.modal_oracle: runs must be >= 1";
  let memo = Hashtbl.create 64 in
  let rec answer word =
    match Hashtbl.find_opt memo word with
    | Some a -> a
    | None ->
        let a =
          match List.rev word with
          | [] -> []
          | _last_sym :: rev_prefix ->
              let prefix_answer = answer (List.rev rev_prefix) in
              (* Plurality of the final output over fresh runs. *)
              let tally = Hashtbl.create 4 in
              for _ = 1 to runs do
                match List.rev (Sul.query sul word) with
                | last :: _ ->
                    let n = try Hashtbl.find tally last with Not_found -> 0 in
                    Hashtbl.replace tally last (n + 1)
                | [] -> ()
              done;
              let best =
                Hashtbl.fold
                  (fun o n acc ->
                    match acc with
                    | Some (_, n') when n' >= n -> acc
                    | _ -> Some (o, n))
                  tally None
              in
              (match best with
              | Some (o, _) -> prefix_answer @ [ o ]
              | None -> invalid_arg "Nondet.modal_oracle: SUL returned no outputs")
        in
        Hashtbl.replace memo word a;
        a
  in
  answer
