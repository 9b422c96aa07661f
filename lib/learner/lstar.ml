module Mealy = Prognosis_automata.Mealy
module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace
module Jsonx = Prognosis_obs.Jsonx

let m_rounds = Metrics.counter Metrics.default "learner.rounds"
let m_cex = Metrics.counter Metrics.default "learner.counterexamples"
let h_cex_len = Metrics.histogram Metrics.default "learner.cex_length"

type ('i, 'o) state = {
  inputs : 'i array;
  mq : ('i, 'o) Oracle.membership;
  mutable s : int list list; (* prefix-closed access words, insertion order *)
  mutable e : int list list; (* suffix-closed, nonempty columns *)
}

(* Words are position words over [inputs]; [Oracle.over] translates
   them once into [mq]'s alphabet when the two differ. *)
let create ~inputs mq =
  if Array.length inputs = 0 then invalid_arg "Lstar.create: empty alphabet";
  let mq = Oracle.over ~inputs mq in
  let e = List.init (Array.length inputs) (fun i -> [ i ]) in
  { inputs; mq; s = [ [] ]; e }

(* Output word for the suffix [e] after access word [u]: the last |e|
   outputs of the full query u·e. *)
let suffix_output t u e =
  let answer = t.mq.Oracle.ask (u @ e) in
  let n = List.length answer and k = List.length e in
  List.filteri (fun i _ -> i >= n - k) answer

let row t u = List.map (fun e -> suffix_output t u e) t.e

let rows t = List.length t.s
let columns t = List.length t.e

(* Make the table closed: every one-symbol extension of an S-row must
   match some S-row; otherwise promote the extension into S. *)
let close t =
  let progress = ref true in
  while !progress do
    progress := false;
    let s_rows = Hashtbl.create 16 in
    List.iter (fun u -> Hashtbl.replace s_rows (row t u) ()) t.s;
    let missing =
      List.concat_map
        (fun u ->
          List.filter_map
            (fun a ->
              let ua = u @ [ a ] in
              if List.mem ua t.s then None
              else if Hashtbl.mem s_rows (row t ua) then None
              else Some ua)
            (List.init (Array.length t.inputs) Fun.id))
        t.s
    in
    match missing with
    | [] -> ()
    | ua :: _ ->
        t.s <- t.s @ [ ua ];
        progress := true
  done

let hypothesis t =
  close t;
  (* Map each distinct row to a state number; the state of an S-word is
     the state of its row. *)
  let row_ids = Hashtbl.create 16 in
  let reps = ref [] in
  List.iter
    (fun u ->
      let r = row t u in
      if not (Hashtbl.mem row_ids r) then begin
        Hashtbl.add row_ids r (Hashtbl.length row_ids);
        reps := u :: !reps
      end)
    t.s;
  let reps = Array.of_list (List.rev !reps) in
  let size = Array.length reps in
  let n = Array.length t.inputs in
  let state_of u = Hashtbl.find row_ids (row t u) in
  let delta = Array.init size (fun _ -> Array.make n 0) in
  let lambda =
    Array.init size (fun q ->
        Array.init n (fun i ->
            match suffix_output t reps.(q) [ i ] with
            | [ o ] -> o
            | _ -> assert false))
  in
  for q = 0 to size - 1 do
    for i = 0 to n - 1 do
      delta.(q).(i) <- state_of (reps.(q) @ [ i ])
    done
  done;
  Mealy.make ~size ~initial:(state_of []) ~inputs:t.inputs ~delta ~lambda

let refine t cex =
  (* Shahbaz–Groz: add every nonempty suffix of the counterexample to E. *)
  let rec suffixes = function
    | [] -> []
    | _ :: rest as w -> w :: suffixes rest
  in
  List.iter
    (fun suffix -> if not (List.mem suffix t.e) then t.e <- t.e @ [ suffix ])
    (suffixes cex)

let learn ?(max_rounds = 100) ?(on_round = fun ~round:_ ~states:_ -> ()) ~inputs
    ~mq ~eq () =
  let t = create ~inputs mq in
  let rec loop round =
    if round > max_rounds then failwith "Lstar.learn: max_rounds exceeded";
    Metrics.inc m_rounds;
    let h, cex =
      Trace.with_span
        ~attrs:
          [
            ("algorithm", Jsonx.String "lstar");
            ("round", Jsonx.Int round);
            ("phase", Jsonx.String "learning");
          ]
        "learner.round"
        (fun () ->
          let h =
            Trace.with_span "learner.hypothesis" (fun () -> hypothesis t)
          in
          Trace.add_attr "hypothesis_states" (Jsonx.Int (Mealy.size h));
          Trace.add_attr "table_rows" (Jsonx.Int (rows t));
          Trace.add_attr "table_columns" (Jsonx.Int (columns t));
          on_round ~round ~states:(Mealy.size h);
          mq.Oracle.stats.equivalence_queries <-
            mq.Oracle.stats.equivalence_queries + 1;
          let cex =
            Trace.with_span
              ~attrs:[ ("phase", Jsonx.String "eq-oracle") ]
              "learner.eq_query"
              (fun () -> eq t.mq h)
          in
          (h, cex))
    in
    match cex with
    | None -> (h, round)
    | Some cex ->
        Metrics.inc m_cex;
        Metrics.observe h_cex_len (float_of_int (List.length cex));
        Trace.with_span
          ~attrs:[ ("cex_len", Jsonx.Int (List.length cex)) ]
          "learner.refine"
          (fun () -> refine t cex);
        loop (round + 1)
  in
  loop 1
