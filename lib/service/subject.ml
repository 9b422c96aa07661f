module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
module Learn = Prognosis_learner.Learn
module Oracle = Prognosis_learner.Oracle
module Engine = Prognosis_exec.Engine
open Prognosis

type t = {
  name : string;
  kind : Persist.kind;
  inputs : string array;
  factory : seed:int64 -> workers:int -> int -> (string, string) Sul.t;
  eq : seed:int64 -> (string, string) Oracle.equivalence;
  learn :
    seed:int64 ->
    algorithm:Learn.algorithm ->
    exec:Prognosis_exec.Engine.config option ->
    (string, string) Mealy.t * Report.t;
}

let profile_of_name name =
  match Prognosis_quic.Quic_profile.find name with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown profile %S (available: %s)" name
           (String.concat ", "
              (List.map
                 (fun p -> p.Prognosis_quic.Quic_profile.name)
                 Prognosis_quic.Quic_profile.all)))

let tcp name server_config =
  let module A = Prognosis_tcp.Tcp_alphabet in
  let wrap =
    Sul.strings ~symbols:A.all ~to_string:A.to_string
      ~output_to_string:A.output_to_string
  in
  {
    name;
    kind = Persist.Tcp_model;
    inputs = Array.map A.to_string A.all;
    factory =
      (fun ~seed ->
        Engine.seeded_factory
          (fun seed ->
            wrap (Prognosis_tcp.Tcp_adapter.sul ~server_config ~seed ()))
          ~seed);
    eq = (fun ~seed -> Tcp_study.eq_oracle A.to_string ~seed);
    learn =
      (fun ~seed ~algorithm ~exec ->
        let r = Tcp_study.learn ~seed ~algorithm ~server_config ?exec () in
        ( Persist.to_string_model ~input_to_string:A.to_string
            ~output_to_string:A.output_to_string r.Tcp_study.model,
          r.Tcp_study.report ));
  }

let dtls name server_config =
  let module A = Prognosis_dtls.Dtls_alphabet in
  let wrap =
    Sul.strings ~symbols:A.all ~to_string:A.to_string
      ~output_to_string:A.output_to_string
  in
  {
    name;
    kind = Persist.Dtls_model;
    inputs = Array.map A.to_string A.all;
    factory =
      (fun ~seed ->
        Engine.seeded_factory
          (fun seed ->
            wrap (Prognosis_dtls.Dtls_adapter.sul ~server_config ~seed ()))
          ~seed);
    eq = (fun ~seed -> Dtls_study.eq_oracle A.to_string ~seed);
    learn =
      (fun ~seed ~algorithm ~exec ->
        let r = Dtls_study.learn ~seed ~algorithm ~server_config ?exec () in
        ( Persist.to_string_model ~input_to_string:A.to_string
            ~output_to_string:A.output_to_string r.Dtls_study.model,
          r.Dtls_study.report ));
  }

let quic name profile =
  let module A = Prognosis_quic.Quic_alphabet in
  let wrap =
    Sul.strings ~symbols:A.all ~to_string:A.to_string
      ~output_to_string:A.output_to_string
  in
  {
    name;
    kind = Persist.Quic_model;
    inputs = Array.map A.to_string A.all;
    factory =
      (fun ~seed ->
        Engine.seeded_factory
          (fun seed -> wrap (Prognosis_quic.Quic_adapter.sul ~profile ~seed ()))
          ~seed);
    eq = (fun ~seed -> Quic_study.eq_oracle A.to_string ~seed);
    learn =
      (fun ~seed ~algorithm ~exec ->
        let r = Quic_study.learn ~seed ~algorithm ?exec ~profile () in
        ( Persist.to_string_model ~input_to_string:A.to_string
            ~output_to_string:A.output_to_string r.Quic_study.model,
          r.Quic_study.report ));
  }

let names =
  [
    "tcp";
    "tcp:persistent";
    "tcp:no-challenge";
    "dtls";
    "dtls:no-cookie";
    "dtls:lax-ccs";
    "quic:<profile>";
  ]

let of_name name =
  let module T = Prognosis_tcp.Tcp_server in
  let module D = Prognosis_dtls.Dtls_server in
  match name with
  | "tcp" -> Ok (tcp name T.default_config)
  | "tcp:persistent" ->
      Ok (tcp name { T.default_config with T.one_shot = false })
  | "tcp:no-challenge" ->
      Ok (tcp name { T.default_config with T.challenge_acks = false })
  | "dtls" -> Ok (dtls name D.default_config)
  | "dtls:no-cookie" ->
      Ok (dtls name { D.default_config with D.require_cookie = false })
  | "dtls:lax-ccs" ->
      Ok (dtls name { D.default_config with D.strict_ccs = false })
  | _ when String.length name > 5 && String.sub name 0 5 = "quic:" ->
      Result.map (quic name)
        (profile_of_name (String.sub name 5 (String.length name - 5)))
  | _ ->
      Error
        (Printf.sprintf "unknown subject %S (available: %s)" name
           (String.concat ", " names))
