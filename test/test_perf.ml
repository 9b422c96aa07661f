(* The compiled-hot-path invariants behind the CI perf gate: packed
   stepping agrees with the functional reference on arbitrary machines
   and packing races safely across domains, the compacted trie cache
   round-trips through the checkpoint format byte-identically and
   fills from several domains exactly as from one, and the sharded
   equivalence oracle produces the same model as a sequential run. The
   lean SUL stack is pinned too: DTLS record protection matches known
   answers, every protocol's learner view answers as its adapter's own
   queries do, learning leaves the study adapter's Oracle Table empty,
   QUIC outputs render to the same strings, and every QUIC datagram and
   IPv4 datagram is byte-identical to known answers. These run under
   the @perf alias, next to the counter gate in CI. *)

module Mealy = Prognosis_automata.Mealy
module Cache = Prognosis_learner.Cache
module Oracle = Prognosis_learner.Oracle
module Metrics = Prognosis_obs.Metrics
module Engine = Prognosis_exec.Engine
module Quic_alphabet = Prognosis_quic.Quic_alphabet
module Quic_profile = Prognosis_quic.Quic_profile
module Quic_client = Prognosis_quic.Quic_client
module Quic_server = Prognosis_quic.Quic_server
module Inet = Prognosis_sul.Inet
module Rng = Prognosis_sul.Rng
module Sul = Prognosis_sul.Sul
module Adapter = Prognosis_sul.Adapter
module C = Prognosis_dtls.Dtls_crypto
open Prognosis

(* --- packed stepping == functional stepping --- *)

let gen_machine_and_words =
  let open QCheck2.Gen in
  int_range 1 8 >>= fun size ->
  int_range 1 4 >>= fun k ->
  let state = int_range 0 (size - 1) in
  array_size (return size) (array_size (return k) state) >>= fun delta ->
  array_size (return size) (array_size (return k) (int_range 0 5))
  >>= fun lambda ->
  state >>= fun initial ->
  list_size (int_range 1 20) (list_size (int_range 0 15) (int_range 0 (k - 1)))
  >>= fun words ->
  let m =
    Mealy.make ~size ~initial ~inputs:(Array.init k Fun.id) ~delta ~lambda
  in
  return (m, words)

let prop_packed_equals_reference =
  QCheck2.Test.make ~count:300 ~name:"packed stepping == functional reference"
    gen_machine_and_words (fun (m, words) ->
      List.for_all
        (fun w ->
          Mealy.run m w = Mealy.run_reference m w
          && Mealy.state_after m w
             = List.fold_left (fun s i -> fst (Mealy.step m s i)) (Mealy.initial m) w)
        words)

let prop_packed_run_from =
  QCheck2.Test.make ~count:200 ~name:"packed run_from == reference from any state"
    gen_machine_and_words (fun (m, words) ->
      List.for_all
        (fun w ->
          let s = Mealy.state_after m w in
          List.for_all
            (fun w' -> Mealy.run_from m s w' = Mealy.run_reference_from m s w')
            words)
        words)

(* --- packing races safely across domains --- *)

(* Four domains released together pack one fresh machine: all must get
   the physically same packed value, and a [map_outputs] copy of it
   must pack afresh (its own memo cell, its own outputs). *)
let pack_race_four_domains () =
  let size = 400 and k = 16 in
  for round = 1 to 20 do
    let m =
      Mealy.make ~size ~initial:0 ~inputs:(Array.init k Fun.id)
        ~delta:
          (Array.init size (fun s ->
               Array.init k (fun i -> (s + i + round) mod size)))
        ~lambda:
          (Array.init size (fun s -> Array.init k (fun i -> s * i mod 7)))
    in
    let ready = Atomic.make 0 in
    let packer () =
      Atomic.incr ready;
      while Atomic.get ready < 4 do
        Domain.cpu_relax ()
      done;
      Mealy.Packed.pack m
    in
    let packs =
      List.map Domain.join (List.init 4 (fun _ -> Domain.spawn packer))
    in
    let first = Mealy.Packed.pack m in
    Alcotest.(check bool)
      (Printf.sprintf "round %d: one packed value" round)
      true
      (List.for_all (fun p -> p == first) packs);
    let copy = Mealy.map_outputs (fun o -> o + 1) m in
    Alcotest.(check bool) "map_outputs copy packs afresh" true
      (Mealy.Packed.pack copy != first
      && Mealy.run copy [ 1; 2 ]
         = List.map (fun o -> o + 1) (Mealy.run m [ 1; 2 ]))
  done

(* --- compacted trie preserves the checkpoint dump format --- *)

(* Words answered by a fixed machine so the query set is
   prefix-consistent, as real membership answers are. *)
let consistent_queries seed =
  let rng = Prognosis_sul.Rng.create seed in
  let m =
    Mealy.of_fun ~size:5 ~initial:0 ~inputs:[| 0; 1; 2 |] ~step:(fun s i ->
        ((s + i + 1) mod 5, (s * 3) + i))
  in
  List.init 60 (fun _ ->
      let len = 1 + Prognosis_sul.Rng.int rng 8 in
      let w = List.init len (fun _ -> Prognosis_sul.Rng.int rng 3) in
      (w, Mealy.run m w))

let trie_dump_restore_roundtrip () =
  let qs = consistent_queries 11L in
  let c1 = Cache.create () in
  List.iter (fun (w, o) -> Cache.insert c1 w o) qs;
  let d1 = Cache.dump c1 in
  let c2 = Cache.create () in
  Cache.restore c2 d1;
  Alcotest.(check bool) "dump . restore . dump is the identity" true
    (Cache.dump c2 = d1);
  Alcotest.(check int) "same entry count" (Cache.size c1) (Cache.size c2);
  Alcotest.(check bool) "trie is compacted" true (Cache.compacted_nodes c2 > 0)

let trie_restores_old_format_order () =
  let qs = consistent_queries 12L in
  (* a checkpoint written by the pre-trie cache carries entries in
     arbitrary (hash-table) order: interleave halves to simulate it *)
  let c1 = Cache.create () in
  List.iter (fun (w, o) -> Cache.insert c1 w o) qs;
  let d = Cache.dump c1 in
  let rec interleave = function
    | [], ys -> ys
    | xs, [] -> xs
    | x :: xs, y :: ys -> x :: y :: interleave (xs, ys)
  in
  let half = List.length d / 2 in
  let scrambled =
    interleave (List.filteri (fun i _ -> i >= half) d,
                List.rev (List.filteri (fun i _ -> i < half) d))
  in
  let c2 = Cache.create () in
  Cache.restore c2 scrambled;
  List.iter
    (fun (w, o) ->
      match Cache.lookup c2 w with
      | Some o' -> Alcotest.(check bool) "restored answer" true (o = o')
      | None -> Alcotest.fail "entry lost restoring an out-of-order dump")
    qs;
  Alcotest.(check bool) "canonical dump independent of input order" true
    (Cache.dump c2 = d)

(* --- one shared trie, filled from any number of domains --- *)

(* Random prefix-consistent word sets (answered by a fixed machine,
   like [consistent_queries]) inserted by K writer domains into one
   shared cache must dump byte-identically to a sequential fill — that
   is what lets a fleet checkpoint interchange with a solo one. *)
let gen_word_set =
  let open QCheck2.Gen in
  let m =
    Mealy.of_fun ~size:6 ~initial:0 ~inputs:[| 0; 1; 2; 3 |] ~step:(fun s i ->
        ((s + (2 * i) + 1) mod 6, (s * 5) + i))
  in
  list_size (int_range 0 80)
    (list_size (int_range 0 10) (int_range 0 3))
  >>= fun words -> return (List.map (fun w -> (w, Mealy.run m w)) words)

let prop_domain_fill_dump_canonical =
  QCheck2.Test.make ~count:60
    ~name:"K-domain fill == sequential dump"
    gen_word_set (fun qs ->
      let flat = Cache.create () in
      List.iter (fun (w, o) -> Cache.insert flat w o) qs;
      let reference = Cache.dump flat in
      List.for_all
        (fun k ->
          let shared = Cache.create () in
          let writer d () =
            List.iteri
              (fun i (w, o) -> if i mod k = d then Cache.insert shared w o)
              qs
          in
          List.init k (fun d -> Domain.spawn (writer d))
          |> List.iter Domain.join;
          Cache.dump shared = reference
          && Cache.size shared = Cache.size flat
          && List.for_all (fun (w, o) -> Cache.lookup shared w = Some o) qs)
        [ 1; 4; 8 ])

(* Four domains hammering one shared cache: two inserting disjoint
   prefix-consistent sets, two asking through caching views the whole
   time. Every answer must be the machine's (the seqlock may retry but
   never tears), the atomic tallies must account for every ask, and
   the final dump equals a sequential insert of everything. *)
let shared_stress_four_domains () =
  let m =
    Mealy.of_fun ~size:7 ~initial:0 ~inputs:[| 0; 1; 2; 3; 4 |]
      ~step:(fun s i -> ((s + i + 2) mod 7, (s * 7) + (2 * i)))
  in
  let answers w = Mealy.run m w in
  let words_of seed n =
    let rng = Prognosis_sul.Rng.create seed in
    List.init n (fun _ ->
        let len = 1 + Prognosis_sul.Rng.int rng 9 in
        List.init len (fun _ -> Prognosis_sul.Rng.int rng 5))
  in
  let batch_a = words_of 31L 400 and batch_b = words_of 32L 400 in
  let cache = Cache.create () in
  let torn = Atomic.make 0 and asked = Atomic.make 0 in
  let inserter batch () =
    List.iter (fun w -> Cache.insert cache w (answers w)) batch
  in
  let prober batch () =
    let mq = Cache.wrap cache (Oracle.of_fun answers) in
    for _ = 1 to 30 do
      List.iter
        (fun w ->
          Atomic.incr asked;
          if mq.Oracle.ask w <> answers w then Atomic.incr torn)
        batch
    done
  in
  let ds =
    List.map Domain.spawn
      [ inserter batch_a; prober batch_b; inserter batch_b; prober batch_a ]
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no answer ever tore" 0 (Atomic.get torn);
  Alcotest.(check bool) "probers were served from the cache" true
    (Cache.hits cache > 0);
  Alcotest.(check int) "hits + misses = asks across all domains"
    (Atomic.get asked)
    (Cache.hits cache + Cache.misses cache);
  let sequential = Cache.create () in
  List.iter
    (fun w -> Cache.insert sequential w (answers w))
    (batch_a @ batch_b);
  Alcotest.(check bool) "dump == sequential insert of both batches" true
    (Cache.dump cache = Cache.dump sequential)

(* --- sharded equivalence testing is deterministic --- *)

let canonical_text r =
  Persist.text_of_model ~kind:Persist.Quic_model
    ~input_to_string:Quic_alphabet.to_string
    ~output_to_string:Quic_alphabet.output_to_string r.Quic_study.model

let parallel_eq_identical () =
  let profile = Quic_profile.quiche_like in
  let sequential = Quic_study.learn ~seed:5L ~profile () in
  let shards = Metrics.counter Metrics.default "eq.shards" in
  let before = !shards in
  let config =
    { Engine.default with Engine.workers = 4; parallel = true; batch = true }
  in
  let parallel = Quic_study.learn ~seed:5L ~exec:config ~profile () in
  Alcotest.(check string) "byte-identical canonical model"
    (canonical_text sequential) (canonical_text parallel);
  Alcotest.(check bool) "suite was sharded" true (!shards > before);
  Alcotest.(check int) "same state count"
    sequential.Quic_study.report.Report.states
    parallel.Quic_study.report.Report.states


(* --- DTLS record protection is bit-identical --- *)

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let kat_payload = String.init 100 (fun i -> Char.chr (((i * 37) + 11) land 255))

let kat_crypto ~server_random =
  let t = C.create () in
  C.derive_master t ~client_random:"0f1e2d3c4b5a6978" ~server_random
    ~premaster:"deadbeefcafef00d";
  t

(* Sealed records (ciphertext then tag, in hex) captured from the
   earlier implementation, which hashed sprintf-built messages. *)
let kat_sealed =
  [
    (C.Client_write, 0, 0, "", "5b34cb53054b7c8c");
    (C.Client_write, 0, 0, kat_payload, "f085c674334d447c92b78eebfc79014e430b85e49d69ca3d9222f7854a114fadaa1772fe15bd12f60c3908a2ce9a5f22d2e17b4c23ccd8ecb1ba08204baf51e1a062faadc90a725201d0db515851439afe399d70192d9528acaea0f4cfd5bf0e9d284aa6d1cb54131ae51c83");
    (C.Client_write, 0, 1, "", "0f6d96b816f5f95c");
    (C.Client_write, 0, 1, kat_payload, "2aae7c09d50327245b1240bdeba35c62531235aa03f3398b163c8ddf8178ed6a748d05252bddb2494007768bb6ffb5792b5c1515e8356925627f6c42cc3a6037957b85d164b53092b7657fb974dacdfb6ae9abd41ba7fc10a1cd80d8e5a7d5dd196e4ac56240733752879073");
    (C.Client_write, 0, 1 lsl 40, "", "b66264eb579b55da");
    (C.Client_write, 0, 1 lsl 40, kat_payload, "59bccd5822b7149cca21369d71c79718af6611dd8cdabce7d6a6bfdd4cde71b4c94b1f61b3dc922a157d6e613487b6e200bc4060c2dbf3e2a513566868b668ed7ebeacf183869b98948293988f9656ccd94afc2abe543664bfa4024a42abee1da4d490ff571effb0c10e66de");
    (C.Client_write, 1, 0, "", "4cb0376789722d0f");
    (C.Client_write, 1, 0, kat_payload, "81f26b6eb3f569b5ac2ac0d8c8b500251882ffdf40cb9fe096e3dabd487551ec8e8fd15cccd1653ce25f3d707ea9767aeb9c80d6d0c40618020fd46edbce197e84b42d578234bbb81eaf54c0e8e28ece6ea01e2644a4184b8bb806791f2d26c41e48fca80f4b841a73bebb4c");
    (C.Client_write, 1, 1, "", "0442504e08f8b58a");
    (C.Client_write, 1, 1, kat_payload, "55605047609d5a01c4f28cd0583e601c6f5bb39fee39f51329d5ae52ca40526c629e19065ebca5ad3dc0184d1b2c176c4695d94ba685564c0a8e668b6f9f5e734da5063e000fde3fc94569d038607f93573c52f18af563124077652f4927f20dc3fb4c9358bd3801e626a949");
    (C.Client_write, 1, 1 lsl 40, "", "6429cfdbd143004e");
    (C.Client_write, 1, 1 lsl 40, kat_payload, "a95db3039865f83edf8a8431bbb9eb5f4da8a1508ceaca4fa2932b4a5590125fd1ccc267888c2c0440b70fa959167c523a9998938e1ad70867bd8314446407215b19280ff557e04728eec819cc1f0a0f0ebb6fea1a0b8c667d5a3cc2c6ee5e7c305e0e8db671834c7d0862b4");
    (C.Server_write, 0, 0, "", "7844dba38648caaf");
    (C.Server_write, 0, 0, kat_payload, "1afe2e825fc8dd5f312f1c128c0a7d9e53cd70247fd436e87671f9e82734cbd26a765d7af94768da312cb3f8c732276a4da7531926bcee1483cd197c474a014443afabd4c4aed1f3affcdb9a47073ce3cfcb5f41f7bd933a54ae2411033bb99e7cb1a97d6cc525ccc8a28b4a");
    (C.Server_write, 0, 1, "", "0d86b78182f3d669");
    (C.Server_write, 0, 1, kat_payload, "c010cdf45f473b1e13ab67123212c2d2623dbb7df3a0b03d925bd85d6c680584a64b993d482a1ad3428601c95e53904abef31d05e00a6b899686308f15c86039139c4d0030d0a28aa40efb444cb7b73d3a0a46a8e3a150885498421fc2e93f3b7084a8edf4f4d380b6a6578e");
    (C.Server_write, 0, 1 lsl 40, "", "855c217f61c62a95");
    (C.Server_write, 0, 1 lsl 40, kat_payload, "e585aecf6f1f964142fc6b3ab7e548c62b3f4548c942bda5d8c53c7cf43ac0e5e23b453e69a5b3c4d45d6322d592b80c26d067eacd3c5e0c977fcc2317eb8c2c388bfea5cba678ed262928e60b1f6d95bb12e9faf0848d56cdfc6bc4b870af85943efd0e4018da47a5dac336");
    (C.Server_write, 1, 0, "", "a346cf293024d9f4");
    (C.Server_write, 1, 0, kat_payload, "0c7cfce8ab54dd1c425a28443d9d79176d03f2449ae5baf16d7bdbd0de05ca611d36c02ca537c06d9c5bb71ccec130e3c75448e64bfaee6646805ce294e080a3bedbb53864f6a8a5af9c8c71dfcd7d84dd92047454fd82f342c24131333766856a6bd1560a959479d6374977");
    (C.Server_write, 1, 1, "", "3e5d37b1247d7545");
    (C.Server_write, 1, 1, kat_payload, "947271ba270e9e0e924ac0e1d8bbfec1a427d2bfe7e490cf70917abd327b5636fe3a9d77986ee9a73b973fdaa33111fa270a142eafe03da0fd6d73e6eaffc6bf07851b954da9834544ed202c96ae669efa9cc617937f738acbcfe12783f3eae01218b5c7ababfb6bcfd5c507");
    (C.Server_write, 1, 1 lsl 40, "", "6fe9c419f20ef67e");
    (C.Server_write, 1, 1 lsl 40, kat_payload, "617131c57100b08f2b69d20ad9415c9322ae3689810cb95cff9460bc8d6ba2d6165c70b9d727aa2a6cc43d80bdba49e8859a8cce3fa8f17d8e0bfd4c31e9b2e6bb4aa84f53af3cd54441224c83996ddda552069fbaee70e8bd240809727bf9049b7d311b47b310bf9352fb0c")
  ]

let dir_name = function C.Client_write -> "client" | C.Server_write -> "server"

let dtls_crypto_known_answers () =
  let t = kat_crypto ~server_random:"a1b2c3d4e5f60718" in
  List.iter
    (fun (dir, epoch, seq, payload, sealed) ->
      let name =
        Printf.sprintf "%s epoch %d seq %d, %d bytes" (dir_name dir) epoch seq
          (String.length payload)
      in
      Alcotest.(check (option string))
        ("seal " ^ name) (Some sealed)
        (Option.map hex (C.seal t dir ~epoch ~seq payload));
      Alcotest.(check (option string))
        ("open " ^ name) (Some payload)
        (C.open_ t dir ~epoch ~seq (of_hex sealed)))
    kat_sealed;
  Alcotest.(check string) "client verify_data" "61b5ac90b32b1201"
    (hex (C.verify_data t C.Client_write));
  Alcotest.(check string) "server verify_data" "058d2fb673e41993"
    (hex (C.verify_data t C.Server_write));
  (* the client derives keys with whatever server random it knows *)
  let t = kat_crypto ~server_random:"" in
  Alcotest.(check string) "client verify_data, no server random"
    "c1b5ca5dc35dae59" (hex (C.verify_data t C.Client_write));
  Alcotest.(check string) "server verify_data, no server random"
    "c5a9d01be17fd6ab" (hex (C.verify_data t C.Server_write));
  Alcotest.(check (option string)) "seal, no server random"
    (Some "cfd5a295d9ed79e662300a79")
    (Option.map hex (C.seal t C.Client_write ~epoch:1 ~seq:3 "ping"));
  let none = C.create () in
  Alcotest.(check bool) "no keys: not ready" false (C.ready none);
  Alcotest.(check (option string)) "no keys: no seal" None
    (C.seal none C.Client_write ~epoch:1 ~seq:0 "ping");
  Alcotest.(check (option string)) "no keys: no open" None
    (C.open_ none C.Client_write ~epoch:1 ~seq:0 (of_hex "5b34cb53054b7c8c"));
  Alcotest.(check string) "no keys: empty verify_data" ""
    (C.verify_data none C.Client_write);
  Alcotest.(check (option string)) "junk shorter than a tag" None
    (C.open_ t C.Client_write ~epoch:1 ~seq:0 "junk")

let prop_dtls_seal_open =
  QCheck2.Test.make ~count:500
    ~name:"dtls open_ (seal p) = Some p; a bit flip or wrong direction fails"
    QCheck2.Gen.(
      tup4
        (triple (string_size (int_range 0 20)) (string_size (int_range 0 20))
           (string_size (int_range 0 20)))
        (triple bool (int_range 0 3) (int_range 0 ((1 lsl 48) - 1)))
        (string_size (int_range 0 120))
        nat)
    (fun ((cr, sr, pms), (client, epoch, seq), p, bit) ->
      let t = C.create () in
      C.derive_master t ~client_random:cr ~server_random:sr ~premaster:pms;
      let dir, other =
        if client then (C.Client_write, C.Server_write)
        else (C.Server_write, C.Client_write)
      in
      match C.seal t dir ~epoch ~seq p with
      | None -> false
      | Some sealed ->
          let bit = bit mod (8 * String.length sealed) in
          let flipped = Bytes.of_string sealed in
          Bytes.set flipped (bit / 8)
            (Char.chr (Char.code sealed.[bit / 8] lxor (1 lsl (bit mod 8))));
          String.length sealed = String.length p + C.tag_length
          && C.open_ t dir ~epoch ~seq sealed = Some p
          && C.open_ t other ~epoch ~seq sealed = None
          && C.open_ t dir ~epoch ~seq (Bytes.to_string flipped) = None)

(* --- the learner view answers as the adapter's own queries --- *)

let gen_seed_and_words alphabet =
  QCheck2.Gen.(
    pair
      (map Int64.of_int (int_range 0 100_000))
      (list_size (int_range 1 8)
         (list_size (int_range 0 10)
            (map (Array.get alphabet)
               (int_range 0 (Array.length alphabet - 1))))))

(* [*.sul] is [Adapter.to_sul] of a fresh adapter; word by word it must
   answer as [Adapter.query] on an adapter built with the same seed. *)
let prop_unrecorded_view ~name ~count ~alphabet ~sul ~create =
  QCheck2.Test.make ~count
    ~name:(name ^ ": *.sul answers as Adapter.to_sul, i.e. as Adapter.query")
    (gen_seed_and_words alphabet)
    (fun (seed, words) ->
      let s = sul seed and a = create seed in
      List.for_all (fun w -> Sul.query s w = Adapter.query a w) words)

let prop_unrecorded_tcp =
  prop_unrecorded_view ~name:"tcp" ~count:60
    ~alphabet:Prognosis_tcp.Tcp_alphabet.all
    ~sul:(fun seed -> Prognosis_tcp.Tcp_adapter.sul ~seed ())
    ~create:(fun seed -> Prognosis_tcp.Tcp_adapter.create ~seed ())

let prop_unrecorded_tcp_client =
  prop_unrecorded_view ~name:"tcp-client" ~count:60
    ~alphabet:Prognosis_tcp.Tcp_client_study.all
    ~sul:(fun seed -> Prognosis_tcp.Tcp_client_study.sul ~seed ())
    ~create:(fun seed -> Prognosis_tcp.Tcp_client_study.adapter ~seed ())

let prop_unrecorded_dtls =
  prop_unrecorded_view ~name:"dtls" ~count:60
    ~alphabet:Prognosis_dtls.Dtls_alphabet.all
    ~sul:(fun seed -> Prognosis_dtls.Dtls_adapter.sul ~seed ())
    ~create:(fun seed -> fst (Prognosis_dtls.Dtls_adapter.create ~seed ()))

let prop_unrecorded_quic =
  prop_unrecorded_view ~name:"quic" ~count:40 ~alphabet:Quic_alphabet.all
    ~sul:(fun seed -> Prognosis_quic.Quic_adapter.sul ~seed ())
    ~create:(fun seed -> fst (Prognosis_quic.Quic_adapter.create ~seed ()))

(* Learning asks through factory SULs only: the study's adapter comes
   back with an empty Oracle Table, which then holds exactly the
   witness words asked through it. *)
let learning_records_nothing () =
  let r = Tcp_study.learn ~seed:1L () in
  let size () =
    Prognosis_sul.Oracle_table.size r.Tcp_study.adapter.Adapter.table
  in
  Alcotest.(check int) "empty after learning" 0 (size ());
  let words =
    Prognosis_tcp.Tcp_alphabet.
      [ [ Syn ]; [ Syn; Ack ]; [ Syn; Ack; Fin_ack ]; [ Ack; Rst ] ]
  in
  ignore (Tcp_study.witness_traces r words);
  Alcotest.(check int) "one entry per witness word" 4 (size ())

(* --- QUIC outputs render to the same strings without Printf --- *)

let reference_apacket (a : Quic_alphabet.apacket) =
  Printf.sprintf "%s(?,?)[%s]"
    (Prognosis_quic.Quic_packet.ptype_to_string a.Quic_alphabet.ptype)
    (String.concat ","
       (List.map Prognosis_quic.Frame.kind_to_string a.Quic_alphabet.frames))

let reference_output = function
  | [] -> "NIL"
  | packets ->
      "{" ^ String.concat ", " (List.map reference_apacket packets) ^ "}"

(* Every list of at most [n] elements of [xs]. *)
let rec lists_upto n xs =
  if n = 0 then [ [] ]
  else
    []
    :: List.concat_map
         (fun x -> List.map (List.cons x) (lists_upto (n - 1) xs))
         xs

let quic_strings_match_reference () =
  let apackets frames_upto =
    List.concat_map
      (fun ptype ->
        List.map
          (fun frames -> { Quic_alphabet.ptype; frames })
          (lists_upto frames_upto Prognosis_quic.Frame.all_kinds))
      Prognosis_quic.Quic_packet.all_ptypes
  in
  let all = apackets 3 in
  Alcotest.(check int) "7 ptypes x (1 + 20 + 400 + 8000) frame lists" 58947
    (List.length all);
  List.iter
    (fun a ->
      let want = reference_apacket a in
      if Quic_alphabet.apacket_to_string a <> want then
        Alcotest.failf "apacket_to_string differs from %S" want)
    all;
  List.iter
    (fun o ->
      let want = reference_output o in
      if Quic_alphabet.output_to_string o <> want then
        Alcotest.failf "output_to_string differs from %S" want)
    (lists_upto 2 (apackets 1))

(* --- the QUIC datagram path: wire known answers --- *)

type wire_action = Sym of Quic_alphabet.symbol | Migrate | Key_update

(* Every symbol, the queued PATH_RESPONSE included, plus the client's
   two out-of-band actions. *)
let wire_actions =
  Array.concat
    [
      Array.map (fun s -> Sym s) Quic_alphabet.extended;
      [| Sym Quic_alphabet.Short_ack_path_response; Migrate; Key_update |];
    ]

(* One step through client, UDP/IPv4 both ways and server, as
   Quic_adapter does on a reliable channel. Every IPv4 datagram and
   what [unwrap_udp] reads back from it go to [emit]; the abstract
   output is returned. *)
let wire_step ~emit client server symbol =
  let client_ip = 0x0A000001 and server_ip = 0x0A000002 in
  let unwrap datagram =
    match Inet.unwrap_udp datagram with
    | Ok (port, payload) ->
        emit datagram port payload;
        Some (port, payload)
    | Error e -> Alcotest.failf "unwrap_udp: %s" e
  in
  match Quic_client.concretize client symbol with
  | None -> []
  | Some (wire, _) ->
      let port = Quic_client.port client in
      let responses =
        match
          unwrap
            (Inet.wrap_udp ~src:client_ip ~dst:server_ip ~src_port:port
               ~dst_port:443 wire)
        with
        | Some (port, payload) ->
            Quic_server.handle_datagram server ~port payload
        | None -> []
      in
      List.filter_map
        (fun payload ->
          match
            unwrap
              (Inet.wrap_udp ~src:server_ip ~dst:client_ip ~src_port:443
                 ~dst_port:port payload)
          with
          | None -> None
          | Some (_, payload) -> (
              match Quic_client.absorb client payload with
              | Quic_client.Packet p -> Some (Quic_alphabet.abstract_packet p)
              | Quic_client.Reset -> Some Quic_alphabet.abstract_reset
              | Quic_client.Junk _ -> None))
        responses

(* Digest of every datagram and abstract output over all profiles x 6
   seeds x 400 fixed random words with migrations and key updates
   mixed in; each output is also checked against Quic_adapter's. *)
let quic_wire_digest () =
  let digests = Buffer.create (1 lsl 20) in
  let datagrams = ref 0 in
  let emit datagram port payload =
    incr datagrams;
    Buffer.add_string digests (Digest.string datagram);
    Buffer.add_string digests (string_of_int port);
    Buffer.add_string digests (Digest.string payload)
  in
  List.iteri
    (fun pi profile ->
      for seed = 1 to 6 do
        let seed = Int64.of_int seed in
        (* the adapter's own RNG split, so both runs see the same draws *)
        let rng = Rng.create seed in
        let server = Quic_server.create ~profile (Rng.split rng) in
        let client = Quic_client.create (Rng.split rng) in
        let adapter, adapter_client =
          Prognosis_quic.Quic_adapter.create ~profile ~seed ()
        in
        let words = Rng.create (Int64.add (Int64.of_int (100 * pi)) seed) in
        for _ = 1 to 400 do
          Quic_server.reset server;
          Quic_client.reset client;
          adapter.Adapter.reset ();
          for _ = 1 to 1 + Rng.int words 10 do
            match wire_actions.(Rng.int words (Array.length wire_actions)) with
            | Migrate ->
                Quic_client.migrate client;
                Quic_client.migrate adapter_client
            | Key_update ->
                Quic_client.initiate_key_update client;
                Quic_client.initiate_key_update adapter_client
            | Sym symbol ->
                let o = wire_step ~emit client server symbol in
                let o', _, _ = adapter.Adapter.step symbol in
                let s = Quic_alphabet.output_to_string o in
                if s <> Quic_alphabet.output_to_string o' then
                  Alcotest.failf "adapter output %s, driver %s"
                    (Quic_alphabet.output_to_string o') s;
                Buffer.add_string digests (Digest.string s)
          done
        done
      done)
    Quic_profile.all;
  (* captured from the implementation that built each packet in two
     Buffers and copied payloads through separate IPv4 and UDP codecs *)
  Alcotest.(check int) "datagrams" 46128 !datagrams;
  Alcotest.(check string) "digest" "a0bfdd887ffcacfdda15e319d0077fbd"
    (Digest.to_hex (Digest.string (Buffer.contents digests)))

(* IPv4 (+ UDP) datagrams captured from the two-codec implementation. *)
let wrap_tcp_answers =
  [
    (0x0A000001, 0x0A000002, "", "4500001400000000400666e20a0000010a000002");
    ( 0x0A000002, 0x0A000001, "\x01",
      "4500001500000000400666e10a0000020a00000101" );
    ( 0xC0A80001, 0xFFFFFFFF, "abc",
      "45000017000000004006ba38c0a80001ffffffff616263" );
    ( 0x0A000001, 0x0A000002, kat_payload,
      "45000078000000004006667e0a0000010a000002" ^ hex kat_payload );
  ]

let wrap_udp_answers =
  [
    ( 0x0A000001, 0x0A000002, 50123, 443, "",
      "4500001c00000000401166cf0a0000010a000002c3cb01bb00082655" );
    ( 0x0A000002, 0x0A000001, 443, 50123, "\x01",
      "4500001d00000000401166ce0a0000020a00000101bbc3cb0009255301" );
    ( 0xC0A80001, 0xFFFFFFFF, 0, 65535, "abc",
      "4500001f000000004011ba25c0a80001ffffffff0000ffff000b7acc616263" );
    ( 0x0A000001, 0x0A000002, 4433, 4433, kat_payload,
      "45000080000000004011666b0a0000010a00000211511151006c6fdf"
      ^ hex kat_payload );
  ]

let inet_known_answers () =
  List.iter
    (fun (src, dst, payload, want) ->
      let name = Printf.sprintf "tcp, %d bytes" (String.length payload) in
      let datagram = Inet.wrap_tcp ~src ~dst payload in
      Alcotest.(check string) ("wrap " ^ name) want (hex datagram);
      Alcotest.(check (result string string))
        ("unwrap " ^ name) (Ok payload) (Inet.unwrap_tcp datagram))
    wrap_tcp_answers;
  List.iter
    (fun (src, dst, src_port, dst_port, payload, want) ->
      let name = Printf.sprintf "udp, %d bytes" (String.length payload) in
      let datagram = Inet.wrap_udp ~src ~dst ~src_port ~dst_port payload in
      Alcotest.(check string) ("wrap " ^ name) want (hex datagram);
      Alcotest.(check (result (pair int string) string))
        ("unwrap " ^ name)
        (Ok (src_port, payload))
        (Inet.unwrap_udp datagram))
    wrap_udp_answers

let prop_udp_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"unwrap_udp (wrap_udp p) = Ok (port, p)"
    QCheck2.Gen.(
      pair
        (quad (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF) (int_bound 0xFFFF)
           (int_bound 0xFFFF))
        (string_size (int_range 0 300)))
    (fun ((src, dst, src_port, dst_port), payload) ->
      Inet.unwrap_udp (Inet.wrap_udp ~src ~dst ~src_port ~dst_port payload)
      = Ok (src_port, payload))

let () =
  Alcotest.run "perf"
    [
      ( "packed",
        [
          QCheck_alcotest.to_alcotest prop_packed_equals_reference;
          QCheck_alcotest.to_alcotest prop_packed_run_from;
          Alcotest.test_case "4-domain pack race" `Quick pack_race_four_domains;
        ] );
      ( "trie",
        [
          Alcotest.test_case "dump/restore round-trip" `Quick
            trie_dump_restore_roundtrip;
          Alcotest.test_case "old-format order" `Quick
            trie_restores_old_format_order;
        ] );
      ( "sharded",
        [
          QCheck_alcotest.to_alcotest prop_domain_fill_dump_canonical;
          Alcotest.test_case "4-domain stress" `Slow
            shared_stress_four_domains;
        ] );
      ( "parallel-eq",
        [
          Alcotest.test_case "byte-identical model" `Slow parallel_eq_identical;
        ] );
      ( "dtls-crypto",
        [
          Alcotest.test_case "known answers" `Quick dtls_crypto_known_answers;
          QCheck_alcotest.to_alcotest prop_dtls_seal_open;
        ] );
      ( "unrecorded",
        [
          QCheck_alcotest.to_alcotest prop_unrecorded_tcp;
          QCheck_alcotest.to_alcotest prop_unrecorded_tcp_client;
          QCheck_alcotest.to_alcotest prop_unrecorded_dtls;
          QCheck_alcotest.to_alcotest prop_unrecorded_quic;
          Alcotest.test_case "learning records nothing" `Quick
            learning_records_nothing;
        ] );
      ( "quic-output",
        [
          Alcotest.test_case "byte-identical to sprintf" `Quick
            quic_strings_match_reference;
        ] );
      ( "quic-wire",
        [
          Alcotest.test_case "datagram digest" `Quick quic_wire_digest;
          Alcotest.test_case "IPv4 known answers" `Quick inet_known_answers;
          QCheck_alcotest.to_alcotest prop_udp_roundtrip;
        ] );
    ]
