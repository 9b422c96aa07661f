(* Fleet-scheduler invariants behind the @service alias: session
   results are byte-identical to solo runs of the same jobs and
   invariant under the domain count, a fleet learn gives the case
   study's own model, results merge in job order, the shared cache
   actually saves queries across a fleet and each session's cache
   tallies are its own, and the jobs file / service report schemas
   round-trip. The core-count-guarded
   throughput check asserts the >= 2x speedup the scheduler exists
   for, and skips on boxes without enough cores to show it. *)

module Service = Prognosis_service.Service
module Subject = Prognosis_service.Subject
module Library = Prognosis_fingerprint.Library
module Identify = Prognosis_fingerprint.Identify
module Jsonx = Prognosis_obs.Jsonx
module Metrics = Prognosis_obs.Metrics
module Learn = Prognosis_learner.Learn
module Persist = Prognosis.Persist
module Dtls_study = Prognosis.Dtls_study
module Dtls_alphabet = Prognosis_dtls.Dtls_alphabet

let subject name =
  match Subject.of_name name with
  | Ok s -> s
  | Error e -> Alcotest.failf "subject %s: %s" name e

(* In-memory library of three known endpoints, learned through the
   typed studies (same canonical bytes as `prognosis library add`). *)
let library =
  lazy
    (let entry name =
       let s = subject name in
       let model, _report =
         s.Subject.learn ~seed:1L ~algorithm:Learn.Ttt_tree ~exec:None
       in
       Library.entry_of_model ~name ~kind:s.Subject.kind model
     in
     {
       Library.dir = "(in-memory)";
       entries =
         [ entry "tcp"; entry "tcp:no-challenge"; entry "quic:quiche-like" ];
     })

(* A mixed 8-job fleet: learn + identify, tcp/dtls/quic, with
   deliberate endpoint repeats so sessions share warmed caches. *)
let mixed_jobs () =
  [
    Service.job ~seed:1L Service.Learn (subject "tcp");
    Service.job ~seed:2L Service.Identify (subject "tcp");
    Service.job ~seed:3L Service.Learn (subject "quic:quiche-like");
    Service.job ~seed:4L Service.Identify (subject "tcp:no-challenge");
    Service.job ~seed:5L Service.Identify (subject "quic:quiche-like");
    Service.job ~seed:1L Service.Learn (subject "tcp");
    Service.job ~seed:6L Service.Identify (subject "tcp");
    Service.job ~seed:7L Service.Learn (subject "dtls");
  ]

let run_fleet ?(domains = 1) jobs =
  match
    Service.run ~domains ~library:(Lazy.force library) ~jobs ()
  with
  | Ok t -> t
  | Error e -> Alcotest.failf "Service.run: %s" e

(* The byte-identity currency: what a session concluded, independent
   of how many queries the shared cache absorbed along the way. *)
let outcome_key = function
  | Service.Learned { canonical; _ } -> "learned:" ^ canonical
  | Service.Identified r -> (
      match r.Identify.outcome with
      | Identify.Known e -> "known:" ^ e.Library.name
      | Identify.Novel _ -> "novel")

let fleet_matches_solo () =
  let jobs = mixed_jobs () in
  let fleet = run_fleet jobs in
  List.iteri
    (fun i job ->
      let solo = run_fleet [ job ] in
      let fleet_s = List.nth fleet.Service.sessions i in
      let solo_s = List.hd solo.Service.sessions in
      Alcotest.(check string)
        (Printf.sprintf "job %d result == solo run" i)
        (outcome_key solo_s.Service.outcome)
        (outcome_key fleet_s.Service.outcome))
    jobs

let fleet_domains_invariant () =
  let jobs = mixed_jobs () in
  let one = run_fleet ~domains:1 jobs in
  let four = run_fleet ~domains:4 jobs in
  Alcotest.(check int) "same session count"
    (List.length one.Service.sessions)
    (List.length four.Service.sessions);
  List.iter2
    (fun (a : Service.session) (b : Service.session) ->
      Alcotest.(check int) "same index" a.Service.index b.Service.index;
      Alcotest.(check string) "same endpoint" a.Service.endpoint
        b.Service.endpoint;
      Alcotest.(check string)
        (Printf.sprintf "session %d result invariant under domains"
           a.Service.index)
        (outcome_key a.Service.outcome)
        (outcome_key b.Service.outcome))
    one.Service.sessions four.Service.sessions

(* A fleet learns DTLS with the study's own equivalence oracle,
   handshake scenarios included: on this seed a generic W-method plus
   random-word oracle stops at a 3-state model, the study finds 7. *)
let fleet_learn_matches_study () =
  let seed = 150148255L in
  let fleet = run_fleet [ Service.job ~seed Service.Learn (subject "dtls") ] in
  let solo = Dtls_study.learn ~seed () in
  let solo_text =
    Persist.text_of_model ~kind:Persist.Dtls_model
      ~input_to_string:Dtls_alphabet.to_string
      ~output_to_string:Dtls_alphabet.output_to_string solo.Dtls_study.model
  in
  match (List.hd fleet.Service.sessions).Service.outcome with
  | Service.Learned { canonical; _ } ->
      Alcotest.(check string) "fleet dtls model == Dtls_study.learn model"
        solo_text canonical
  | Service.Identified _ -> Alcotest.fail "a learn job must learn"

(* Each session has exactly one cache layer, the endpoint's shared
   cache: its hits are the words that cache served it, its misses the
   words its own pool ran, and the sessions' tallies add up to the
   shared caches' — at one domain and at two. *)
let session_cache_tallies () =
  let jobs =
    [
      Service.job ~seed:1L Service.Identify (subject "tcp");
      Service.job ~seed:2L Service.Identify (subject "tcp");
      Service.job ~seed:3L Service.Learn (subject "tcp");
      Service.job ~seed:4L Service.Identify (subject "quic:quiche-like");
      Service.job ~seed:5L Service.Identify (subject "quic:quiche-like");
    ]
  in
  List.iter
    (fun domains ->
      let fleet = run_fleet ~domains jobs in
      let sessions = fleet.Service.sessions in
      List.iter
        (fun (s : Service.session) ->
          Alcotest.(check int)
            (Printf.sprintf "session %d: misses = SUL queries" s.Service.index)
            s.Service.membership_queries s.Service.cache_misses;
          match s.Service.outcome with
          | Service.Identified r ->
              Alcotest.(check int)
                (Printf.sprintf "session %d: hits + misses = words asked"
                   s.Service.index)
                (r.Identify.walk_words + r.Identify.confirm_words)
                (s.Service.cache_hits + s.Service.cache_misses)
          | Service.Learned _ -> ())
        sessions;
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 in
      Alcotest.(check int)
        (Printf.sprintf "%d domain(s): session hits sum to shared hits" domains)
        (Service.shared_hits fleet)
        (sum (fun (s : Service.session) -> s.Service.cache_hits) sessions);
      Alcotest.(check int)
        (Printf.sprintf "%d domain(s): session misses sum to shared misses"
           domains)
        (sum (fun (c : Service.shared_cache) -> c.Service.misses)
           fleet.Service.shared)
        (sum (fun (s : Service.session) -> s.Service.cache_misses) sessions);
      if domains = 1 then
        Alcotest.(check bool)
          "the second tcp identify is served by the cache the first warmed"
          true
          ((List.nth sessions 1).Service.cache_hits > 0))
    [ 1; 2 ]

let merge_order () =
  let jobs = mixed_jobs () in
  let fleet = run_fleet jobs in
  List.iteri
    (fun i (s : Service.session) ->
      Alcotest.(check int) "index is job position" i s.Service.index;
      let job = List.nth jobs i in
      Alcotest.(check string) "endpoint is the job's subject"
        job.Service.subject.Subject.name s.Service.endpoint)
    fleet.Service.sessions

let shared_cache_saves_queries () =
  let jobs = mixed_jobs () in
  let fleet = run_fleet jobs in
  let cold =
    List.fold_left
      (fun acc job ->
        acc + Service.total_membership_queries (run_fleet [ job ]))
      0 jobs
  in
  let warm = Service.total_membership_queries fleet in
  Alcotest.(check bool) "shared cache was hit" true
    (Service.shared_hits fleet > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fleet asks fewer SUL queries than cold (%d < %d)" warm
       cold)
    true (warm < cold);
  (* One shared cache per distinct endpoint, first-appearance order. *)
  Alcotest.(check (list string))
    "shared caches keyed by endpoint"
    [ "tcp"; "quic:quiche-like"; "tcp:no-challenge"; "dtls" ]
    (List.map (fun c -> c.Service.cache_endpoint) fleet.Service.shared)

let jobs_roundtrip () =
  let text =
    {|{"schema": "prognosis.jobs/1", "jobs": [
        {"op": "learn", "subject": "tcp", "seed": 7},
        {"op": "identify", "subject": "quic:quiche-like"},
        {"op": "learn", "subject": "dtls", "seed": "9", "algorithm": "lstar"}]}|}
  in
  match Service.jobs_of_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok jobs ->
      Alcotest.(check int) "three jobs" 3 (List.length jobs);
      let j0 = List.nth jobs 0 and j1 = List.nth jobs 1 in
      let j2 = List.nth jobs 2 in
      Alcotest.(check bool) "op learn" true (j0.Service.op = Service.Learn);
      Alcotest.(check string) "subject" "tcp" j0.Service.subject.Subject.name;
      Alcotest.(check int64) "int seed" 7L j0.Service.seed;
      Alcotest.(check int64) "default seed" 1L j1.Service.seed;
      Alcotest.(check bool) "default algorithm" true
        (j1.Service.algorithm = Learn.Ttt_tree);
      Alcotest.(check int64) "string seed" 9L j2.Service.seed;
      Alcotest.(check bool) "lstar" true (j2.Service.algorithm = Learn.L_star)

let jobs_rejects_garbage () =
  let bad text =
    match Service.jobs_of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" text
  in
  bad {|{"schema": "prognosis.jobs/0", "jobs": []}|};
  bad {|{"schema": "prognosis.jobs/1", "jobs": [{"op": "learn"}]}|};
  bad
    {|{"schema": "prognosis.jobs/1", "jobs": [{"op": "frob", "subject": "tcp"}]}|};
  bad
    {|{"schema": "prognosis.jobs/1", "jobs": [{"op": "learn", "subject": "nope"}]}|};
  bad {|not json|}

let identify_requires_library () =
  match
    Service.run ~jobs:[ Service.job Service.Identify (subject "tcp") ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "identify without a library must be an Error"

let service_json_schema () =
  let fleet = run_fleet (mixed_jobs ()) in
  match Service.to_json fleet with
  | Jsonx.Obj fields ->
      Alcotest.(check bool) "schema field" true
        (List.assoc_opt "schema" fields = Some (Jsonx.String Service.schema));
      Alcotest.(check string) "schema value" "prognosis.service/1"
        Service.schema;
      (match List.assoc_opt "sessions" fields with
      | Some (Jsonx.List sessions) ->
          Alcotest.(check int) "one entry per job" 8 (List.length sessions)
      | _ -> Alcotest.fail "sessions must be a list");
      (match List.assoc_opt "shared_caches" fields with
      | Some (Jsonx.List caches) ->
          Alcotest.(check int) "one cache per endpoint" 4 (List.length caches)
      | _ -> Alcotest.fail "shared_caches must be a list")
  | _ -> Alcotest.fail "service block must be an object"

(* The point of the scheduler: >= 2x throughput at 4 domains. Needs
   real cores to show it, so skip (loudly) on smaller boxes — the
   result-identity checks above still run everywhere. *)
let throughput_scales () =
  if Domain.recommended_domain_count () < 4 then
    Printf.printf
      "SKIP throughput: %d recommended domains (< 4); identity checks still \
       cover correctness\n"
      (Domain.recommended_domain_count ())
  else begin
    let jobs =
      List.concat_map
        (fun seed ->
          [
            Service.job ~seed Service.Learn (subject "tcp");
            Service.job ~seed Service.Learn (subject "tcp:no-challenge");
            Service.job ~seed Service.Learn (subject "dtls");
            Service.job ~seed Service.Learn (subject "quic:quiche-like");
          ])
        [ 21L; 22L ]
    in
    let one = run_fleet ~domains:1 jobs in
    let four = run_fleet ~domains:4 jobs in
    Alcotest.(check bool)
      (Printf.sprintf "4 domains >= 2x throughput (%.1f vs %.1f sessions/s)"
         four.Service.sessions_per_sec one.Service.sessions_per_sec)
      true
      (four.Service.sessions_per_sec >= 2.0 *. one.Service.sessions_per_sec)
  end

let () =
  Metrics.reset Metrics.default;
  Alcotest.run "service"
    [
      ( "fleet",
        [
          Alcotest.test_case "fleet == solo, per job" `Slow fleet_matches_solo;
          Alcotest.test_case "results invariant under domains" `Slow
            fleet_domains_invariant;
          Alcotest.test_case "dtls learn == study" `Slow
            fleet_learn_matches_study;
          Alcotest.test_case "session cache tallies" `Slow
            session_cache_tallies;
          Alcotest.test_case "merged in job order" `Quick merge_order;
          Alcotest.test_case "shared cache saves queries" `Slow
            shared_cache_saves_queries;
          Alcotest.test_case "throughput scales with domains" `Slow
            throughput_scales;
        ] );
      ( "schema",
        [
          Alcotest.test_case "jobs file round-trip" `Quick jobs_roundtrip;
          Alcotest.test_case "jobs file rejects garbage" `Quick
            jobs_rejects_garbage;
          Alcotest.test_case "identify requires a library" `Quick
            identify_requires_library;
          Alcotest.test_case "service block schema" `Quick service_json_schema;
        ] );
    ]
