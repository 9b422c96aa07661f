module Mealy = Prognosis_automata.Mealy
module Metrics = Prognosis_obs.Metrics
module Trace = Prognosis_obs.Trace
module Jsonx = Prognosis_obs.Jsonx

(* Same registry entries as Lstar: [Metrics.counter] is get-or-create,
   so both algorithms report into one set of learner metrics. *)
let m_rounds = Metrics.counter Metrics.default "learner.rounds"
let m_cex = Metrics.counter Metrics.default "learner.counterexamples"
let h_cex_len = Metrics.histogram Metrics.default "learner.cex_length"

type ('i, 'o) cell = { mutable contents : ('i, 'o) contents }

and ('i, 'o) contents =
  | Leaf of ('i, 'o) leaf
  | Node of ('i, 'o) node

and ('i, 'o) leaf = { access : int list; id : int }

and ('i, 'o) node = {
  discriminator : int list;
  mutable children : ('o list * ('i, 'o) cell) list;
}

type ('i, 'o) state = {
  inputs : 'i array;
  mq : ('i, 'o) Oracle.membership;
  root : ('i, 'o) cell;
  mutable next_id : int;
  cells : (int, ('i, 'o) cell) Hashtbl.t; (* leaf id -> enclosing cell *)
  accesses : (int, int list) Hashtbl.t;
}

(* Words are position words over [inputs]; [Oracle.over] translates
   them once into [mq]'s alphabet when the two differ. *)
let create ~inputs mq =
  if Array.length inputs = 0 then invalid_arg "Ttt.create: empty alphabet";
  let mq = Oracle.over ~inputs mq in
  let leaf = { access = []; id = 0 } in
  let root = { contents = Leaf leaf } in
  let cells = Hashtbl.create 16 in
  let accesses = Hashtbl.create 16 in
  Hashtbl.add cells 0 root;
  Hashtbl.add accesses 0 [];
  { inputs; mq; root; next_id = 1; cells; accesses }

let leaves t = t.next_id

(* Outputs produced for the suffix [v] when running u·v from the
   initial state. *)
let suffix_output t u v =
  let answer = t.mq.Oracle.ask (u @ v) in
  let n = List.length answer and k = List.length v in
  List.filteri (fun i _ -> i >= n - k) answer

let fresh_leaf t access =
  let leaf = { access; id = t.next_id } in
  t.next_id <- t.next_id + 1;
  Hashtbl.add t.accesses leaf.id access;
  leaf

(* Sift an access word down the tree to the leaf representing its
   SUL state, extending the tree with a fresh leaf when the word
   exhibits a new combination of discriminator outputs. *)
let rec sift t cell u =
  match cell.contents with
  | Leaf l -> l
  | Node n -> (
      let out = suffix_output t u n.discriminator in
      match
        List.find_opt (fun (o, _) -> Oracle.same_answer o out) n.children
      with
      | Some (_, child) -> sift t child u
      | None ->
          let leaf = fresh_leaf t u in
          let child = { contents = Leaf leaf } in
          n.children <- (out, child) :: n.children;
          Hashtbl.add t.cells leaf.id child;
          leaf)

let hypothesis t =
  let n = Array.length t.inputs in
  let transitions : (int, int array * 'o array) Hashtbl.t = Hashtbl.create 16 in
  let pending = Queue.create () in
  let initial = (sift t t.root []).id in
  Queue.add initial pending;
  let enqueued = Hashtbl.create 16 in
  Hashtbl.add enqueued initial ();
  while not (Queue.is_empty pending) do
    let q = Queue.pop pending in
    if not (Hashtbl.mem transitions q) then begin
      let u = Hashtbl.find t.accesses q in
      let targets = Array.make n 0 in
      let outputs =
        Array.init n (fun i ->
            match suffix_output t u [ i ] with
            | [ o ] -> o
            | _ -> assert false)
      in
      for i = 0 to n - 1 do
        let target = (sift t t.root (u @ [ i ])).id in
        targets.(i) <- target;
        if not (Hashtbl.mem enqueued target) then begin
          Hashtbl.add enqueued target ();
          Queue.add target pending
        end
      done;
      Hashtbl.replace transitions q (targets, outputs)
    end
  done;
  (* Leaf ids are dense but possibly include leaves unreachable in the
     current hypothesis; renumber the reachable ones. *)
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) transitions [] in
  let ids = Array.of_list (List.sort compare ids) in
  let renumber = Hashtbl.create 16 in
  Array.iteri (fun idx id -> Hashtbl.add renumber id idx) ids;
  let size = Array.length ids in
  let delta = Array.init size (fun _ -> Array.make n 0) in
  let first_outputs = snd (Hashtbl.find transitions ids.(0)) in
  let lambda = Array.init size (fun _ -> Array.make n first_outputs.(0)) in
  Array.iteri
    (fun idx id ->
      let targets, outputs = Hashtbl.find transitions id in
      for i = 0 to n - 1 do
        delta.(idx).(i) <- Hashtbl.find renumber targets.(i);
        lambda.(idx).(i) <- outputs.(i)
      done)
    ids;
  let machine =
    Mealy.make ~size ~initial:(Hashtbl.find renumber initial) ~inputs:t.inputs
      ~delta ~lambda
  in
  (machine, fun state_idx -> Hashtbl.find t.accesses ids.(state_idx))

let take k l = List.filteri (fun i _ -> i < k) l
let drop k l = List.filteri (fun i _ -> i >= k) l

(* Recover the leaf id carrying a given access word. *)
let find_leaf_id t access =
  let found = ref (-1) in
  Hashtbl.iter (fun id a -> if a = access then found := id) t.accesses;
  assert (!found >= 0);
  !found

let refine t cex =
  let h, access_of = hypothesis t in
  let p = Mealy.pack h in
  let sul_out = t.mq.Oracle.ask cex in
  let hyp_out = Mealy.Packed.run p cex in
  if Oracle.same_answer sul_out hyp_out then false
  else begin
    let n = List.length cex in
    (* phi i = hypothesis outputs on cex[:i] followed by the SUL's
       outputs for cex[i:] after replaying the access word of the
       hypothesis state reached on cex[:i]. phi 0 <> phi n, and any
       adjacent disagreement yields a state to split. *)
    let memo = Hashtbl.create 8 in
    let phi i =
      match Hashtbl.find_opt memo i with
      | Some v -> v
      | None ->
          let prefix = take i cex and suffix = drop i cex in
          let state = Mealy.Packed.state_after p prefix in
          let v =
            Mealy.Packed.run p prefix @ suffix_output t (access_of state) suffix
          in
          Hashtbl.add memo i v;
          v
    in
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if not (Oracle.same_answer (phi mid) (phi !hi)) then lo := mid
      else hi := mid
    done;
    let i = !lo in
    let u = take i cex and rest = drop i cex in
    match rest with
    | [] -> false
    | a :: v ->
        if v = [] then false
        else begin
          let q_i = Mealy.Packed.state_after p u in
          let q' = Mealy.Packed.next p q_i a in
          let old_access = access_of q' in
          let new_access = access_of q_i @ [ a ] in
          let out_old = suffix_output t old_access v in
          let out_new = suffix_output t new_access v in
          if Oracle.same_answer out_old out_new then false
          else begin
            (* Split the leaf of q': its cell becomes an inner node
               discriminating with v between the old and the new state. *)
            let old_leaf =
              match (Hashtbl.find t.cells (find_leaf_id t old_access)).contents with
              | Leaf l -> l
              | Node _ -> assert false
            in
            let new_leaf = fresh_leaf t new_access in
            let cell = Hashtbl.find t.cells old_leaf.id in
            let old_cell = { contents = Leaf old_leaf } in
            let new_cell = { contents = Leaf new_leaf } in
            cell.contents <-
              Node
                {
                  discriminator = v;
                  children = [ (out_old, old_cell); (out_new, new_cell) ];
                };
            Hashtbl.replace t.cells old_leaf.id old_cell;
            Hashtbl.replace t.cells new_leaf.id new_cell;
            true
          end
        end
  end

let hypothesis t = fst (hypothesis t)

let learn ?(max_rounds = 200) ?(on_round = fun ~round:_ ~states:_ -> ()) ~inputs
    ~mq ~eq () =
  let t = create ~inputs mq in
  let rec loop round =
    if round > max_rounds then failwith "Ttt.learn: max_rounds exceeded";
    Metrics.inc m_rounds;
    let h, cex =
      Trace.with_span
        ~attrs:
          [
            ("algorithm", Jsonx.String "ttt");
            ("round", Jsonx.Int round);
            ("phase", Jsonx.String "learning");
          ]
        "learner.round"
        (fun () ->
          let h =
            Trace.with_span "learner.hypothesis" (fun () -> hypothesis t)
          in
          Trace.add_attr "hypothesis_states" (Jsonx.Int (Mealy.size h));
          Trace.add_attr "tree_leaves" (Jsonx.Int (leaves t));
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
        let usable =
          Trace.with_span
            ~attrs:[ ("cex_len", Jsonx.Int (List.length cex)) ]
            "learner.refine"
            (fun () -> refine t cex)
        in
        if usable then loop (round + 1)
        else failwith "Ttt.learn: unusable counterexample (nondeterministic SUL?)"
  in
  loop 1
