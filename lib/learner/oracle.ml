module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace
module Clock = Prognosis_obs.Clock

type stats = {
  mutable membership_queries : int;
  mutable membership_symbols : int;
  mutable equivalence_queries : int;
  mutable test_words : int;
}

let fresh_stats () =
  {
    membership_queries = 0;
    membership_symbols = 0;
    equivalence_queries = 0;
    test_words = 0;
  }

type ('i, 'o) membership = {
  inputs : 'i array;
  ask : int list -> 'o list;
  ask_batch : (int list list -> 'o list list) option;
  stats : stats;
}

let m_queries = Metrics.counter Metrics.default "oracle.membership_queries"
let m_symbols = Metrics.counter Metrics.default "oracle.membership_symbols"
let h_latency = Metrics.histogram Metrics.default "oracle.mq_latency_ns"

(* Every query through [of_fun] is one that reaches the underlying
   function (the SUL, or the nondeterminism check around it): cache
   layers sit *above* this oracle and short-circuit before [ask] runs,
   which is what keeps [membership_queries] an exact count of queries
   the SUL actually served. *)
let of_fun ?stats ?batch ~inputs f =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let ask word =
    stats.membership_queries <- stats.membership_queries + 1;
    stats.membership_symbols <- stats.membership_symbols + List.length word;
    Metrics.inc m_queries;
    Metrics.inc ~by:(List.length word) m_symbols;
    let t0 = Clock.now_ns () in
    let answer =
      if Trace.enabled () then
        Trace.with_span
          ~attrs:[ ("len", Prognosis_obs.Jsonx.Int (List.length word)) ]
          "oracle.mq"
          (fun () -> f word)
      else f word
    in
    Metrics.observe_ns h_latency (Int64.sub (Clock.now_ns ()) t0);
    answer
  in
  (* A batch executor is accounted like the equivalent sequence of
     single queries: every batched word reached the underlying
     function, so the per-query invariants (and the cache-miss
     equality the driver asserts) keep holding. *)
  let ask_batch =
    Option.map
      (fun f words ->
        List.iter
          (fun word ->
            stats.membership_queries <- stats.membership_queries + 1;
            stats.membership_symbols <-
              stats.membership_symbols + List.length word;
            Metrics.inc m_queries;
            Metrics.inc ~by:(List.length word) m_symbols)
          words;
        f words)
      batch
  in
  { inputs; ask; ask_batch; stats }

let of_sul ?stats (sul : _ Prognosis_sul.Sul.t) =
  of_fun ?stats ~inputs:sul.inputs (Prognosis_sul.Sul.query sul)

let of_sul_checked ?stats ?(config = Prognosis_sul.Nondet.default) ~pp
    (sul : _ Prognosis_sul.Sul.t) =
  of_fun ?stats ~inputs:sul.inputs
    (Prognosis_sul.Nondet.deterministic_query config ~pp sul)

(* Position [i] of [inputs] is position [map.(i)] of [mq.inputs]; the
   map is built once. An alphabet that is a prefix of [mq]'s (a subset
   in the same order, like QUIC's seven symbols of the adapter's ten)
   keeps every position and needs no translation. *)
let over ~inputs mq =
  if inputs == mq.inputs || inputs = mq.inputs then mq
  else begin
    let position x =
      try Prognosis_automata.Mealy.position mq.inputs x
      with Not_found ->
        invalid_arg "Oracle.over: a symbol is not in the oracle's alphabet"
    in
    let map = Array.map position inputs in
    let translate word = List.map (Array.get map) word in
    let same_positions = ref true in
    Array.iteri (fun i j -> if i <> j then same_positions := false) map;
    if !same_positions then { mq with inputs }
    else
      {
        inputs;
        ask = (fun word -> mq.ask (translate word));
        ask_batch =
          Option.map (fun f words -> f (List.map translate words)) mq.ask_batch;
        stats = mq.stats;
      }
  end

(* Answers are compared output by output, physically first: an answer
   replayed from the SUL's (or a model's) own values then costs no
   polymorphic comparison. *)
let rec same_answer a b =
  match (a, b) with
  | [], [] -> true
  | x :: a, y :: b -> (x == y || x = y) && same_answer a b
  | _ -> false

type ('i, 'o) equivalence =
  ('i, 'o) membership -> ('i, 'o) Prognosis_automata.Mealy.t -> int list option
