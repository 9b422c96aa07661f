module Mealy = Prognosis_automata.Mealy
module Sul = Prognosis_sul.Sul
module Rng = Prognosis_sul.Rng
module Nondet = Prognosis_sul.Nondet
module Learn = Prognosis_learner.Learn
module Eq_oracle = Prognosis_learner.Eq_oracle
open Prognosis_quic

(* --- varint --- *)

let varint_roundtrip () =
  List.iter
    (fun v ->
      let s = Varint.encode_to_string v in
      let pos = ref 0 in
      let v' = Varint.read s pos in
      Alcotest.(check int) (Printf.sprintf "value %d" v) v v';
      Alcotest.(check int) "consumed all" (String.length s) !pos)
    [ 0; 1; 63; 64; 16383; 16384; 1073741823; 1073741824; Varint.max_value ]

let varint_lengths () =
  Alcotest.(check int) "1 byte" 1 (Varint.encoded_length 63);
  Alcotest.(check int) "2 bytes" 2 (Varint.encoded_length 64);
  Alcotest.(check int) "4 bytes" 4 (Varint.encoded_length 16384);
  Alcotest.(check int) "8 bytes" 8 (Varint.encoded_length (1 lsl 30))

let varint_rejects () =
  Alcotest.check_raises "negative" (Invalid_argument "Varint: value out of range")
    (fun () -> ignore (Varint.encoded_length (-1)))

(* --- crypto --- *)

let crypto_seal_open () =
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"12345678";
  match
    Quic_crypto.seal c Quic_crypto.Initial_level Quic_crypto.Client_to_server
      ~pn:0 ~header:"hdr" "hello quic"
  with
  | None -> Alcotest.fail "seal failed"
  | Some sealed -> (
      Alcotest.(check bool) "ciphertext differs" true
        (String.sub sealed 0 10 <> "hello quic");
      match
        Quic_crypto.open_ c Quic_crypto.Initial_level Quic_crypto.Client_to_server
          ~pn:0 ~header:"hdr" sealed
      with
      | Some plain -> Alcotest.(check string) "roundtrip" "hello quic" plain
      | None -> Alcotest.fail "open failed")

let crypto_detects_tamper () =
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"12345678";
  match
    Quic_crypto.seal c Quic_crypto.Initial_level Quic_crypto.Client_to_server
      ~pn:0 ~header:"hdr" "payload"
  with
  | None -> Alcotest.fail "seal failed"
  | Some sealed ->
      let tampered =
        String.mapi (fun i ch -> if i = 0 then Char.chr (Char.code ch lxor 1) else ch) sealed
      in
      Alcotest.(check bool) "tamper rejected" true
        (Quic_crypto.open_ c Quic_crypto.Initial_level Quic_crypto.Client_to_server
           ~pn:0 ~header:"hdr" tampered
        = None)

let crypto_level_isolation () =
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"12345678";
  Alcotest.(check bool) "handshake missing" true
    (Quic_crypto.seal c Quic_crypto.Handshake_level Quic_crypto.Client_to_server
       ~pn:0 ~header:"h" "x"
    = None);
  Quic_crypto.install_handshake c ~client_random:"cr" ~server_random:"sr";
  Alcotest.(check bool) "handshake available" true
    (Quic_crypto.has_level c Quic_crypto.Handshake_level);
  Alcotest.(check bool) "application available" true
    (Quic_crypto.has_level c Quic_crypto.Application_level);
  Quic_crypto.drop_level c Quic_crypto.Initial_level;
  Alcotest.(check bool) "initial dropped" false
    (Quic_crypto.has_level c Quic_crypto.Initial_level)

let crypto_direction_isolation () =
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"12345678";
  match
    Quic_crypto.seal c Quic_crypto.Initial_level Quic_crypto.Client_to_server
      ~pn:0 ~header:"h" "data"
  with
  | None -> Alcotest.fail "seal failed"
  | Some sealed ->
      Alcotest.(check bool) "wrong direction rejected" true
        (Quic_crypto.open_ c Quic_crypto.Initial_level Quic_crypto.Server_to_client
           ~pn:0 ~header:"h" sealed
        = None)

(* --- frames --- *)

let all_frames =
  Frame.
    [
      Padding 3;
      Ping;
      Ack { largest = 7; delay = 0; first_range = 2 };
      Reset_stream { stream_id = 4; error = 1; final_size = 100 };
      Stop_sending { stream_id = 4; error = 2 };
      Crypto { offset = 10; data = "crypto-data" };
      New_token "token-bytes";
      Stream { id = 0; offset = 5; data = "hello"; fin = true };
      Max_data 4096;
      Max_stream_data { stream_id = 0; max = 2048 };
      Max_streams { bidi = true; max = 10 };
      Data_blocked 4096;
      Stream_data_blocked { stream_id = 0; max = 2048 };
      Streams_blocked { bidi = false; max = 5 };
      New_connection_id
        { seq = 1; retire_prior = 0; cid = "abcdefgh"; reset_token = String.make 16 't' };
      Retire_connection_id 0;
      Path_challenge "12345678";
      Path_response "87654321";
      Connection_close { error = 10; frame_type = 0; reason = "bye"; app = false };
      Handshake_done;
    ]

let frame_roundtrip () =
  let encoded = Frame.encode_all all_frames in
  match Frame.decode_all encoded with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      Alcotest.(check int) "frame count" (List.length all_frames) (List.length decoded);
      List.iter2
        (fun expected actual ->
          Alcotest.(check bool)
            (Fmt.str "frame %a" Frame.pp expected)
            true (expected = actual))
        all_frames decoded

let frame_kinds_cover_all_20 () =
  Alcotest.(check int) "20 kinds" 20 (List.length Frame.all_kinds);
  let kinds = List.sort_uniq compare (List.map Frame.kind all_frames) in
  Alcotest.(check int) "fixture covers all kinds" 20 (List.length kinds)

let frame_bad_input () =
  match Frame.decode_all "\xFF\xFF" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not decode"

let frame_ack_eliciting () =
  Alcotest.(check bool) "ping elicits" true (Frame.is_ack_eliciting Frame.Ping);
  Alcotest.(check bool) "ack does not" false
    (Frame.is_ack_eliciting (Frame.Ack { largest = 0; delay = 0; first_range = 0 }))

(* --- packets --- *)

let fresh_crypto () =
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"dcid-123";
  Quic_crypto.install_handshake c ~client_random:"cr" ~server_random:"sr";
  c

let packet_roundtrip ptype =
  let crypto = fresh_crypto () in
  let p =
    Quic_packet.make ptype ~dcid:"dcid-123" ~scid:"scid-456" ~pn:3
      ~frames:[ Frame.Ping; Frame.Crypto { offset = 0; data = "CH" } ]
  in
  let p =
    if ptype = Quic_packet.Short then { p with Quic_packet.dcid = "8bytecid" } else p
  in
  match Quic_packet.encode ~crypto ~sender:Quic_crypto.Client_to_server p with
  | None -> Alcotest.fail "encode failed"
  | Some wire -> (
      match
        Quic_packet.decode ~crypto ~sender:Quic_crypto.Client_to_server
          ~reset_tokens:[] wire
      with
      | Quic_packet.Decoded p' ->
          Alcotest.(check bool) "ptype" true (p'.Quic_packet.ptype = ptype);
          Alcotest.(check int) "pn" 3 p'.Quic_packet.pn;
          Alcotest.(check int) "frames" 2 (List.length p'.Quic_packet.frames)
      | Quic_packet.Reset_detected _ -> Alcotest.fail "not a reset"
      | Quic_packet.Undecodable e -> Alcotest.fail e)

let packet_initial_roundtrip () = packet_roundtrip Quic_packet.Initial
let packet_handshake_roundtrip () = packet_roundtrip Quic_packet.Handshake
let packet_short_roundtrip () = packet_roundtrip Quic_packet.Short

let packet_retry_roundtrip () =
  let crypto = fresh_crypto () in
  let p =
    Quic_packet.make Quic_packet.Retry ~dcid:"dcid-123" ~scid:"scid-456"
      ~token:"retry-token"
  in
  match Quic_packet.encode ~crypto ~sender:Quic_crypto.Server_to_client p with
  | None -> Alcotest.fail "encode failed"
  | Some wire -> (
      match
        Quic_packet.decode ~crypto ~sender:Quic_crypto.Server_to_client
          ~reset_tokens:[] wire
      with
      | Quic_packet.Decoded p' ->
          Alcotest.(check bool) "retry" true (p'.Quic_packet.ptype = Quic_packet.Retry);
          Alcotest.(check string) "token" "retry-token" p'.Quic_packet.token
      | _ -> Alcotest.fail "expected retry")

let packet_wrong_keys_undecodable () =
  let crypto = fresh_crypto () in
  let other = Quic_crypto.create () in
  Quic_crypto.install_initial other ~dcid:"different";
  let p =
    Quic_packet.make Quic_packet.Initial ~dcid:"dcid-123" ~scid:"s" ~pn:0
      ~frames:[ Frame.Ping ]
  in
  match Quic_packet.encode ~crypto ~sender:Quic_crypto.Client_to_server p with
  | None -> Alcotest.fail "encode failed"
  | Some wire -> (
      match
        Quic_packet.decode ~crypto:other ~sender:Quic_crypto.Client_to_server
          ~reset_tokens:[] wire
      with
      | Quic_packet.Undecodable _ -> ()
      | _ -> Alcotest.fail "wrong keys must not decode")

let stateless_reset_detection () =
  let rng = Rng.create 5L in
  let token = Quic_crypto.stateless_reset_token ~dcid:"somecid1" in
  let wire = Quic_packet.encode_stateless_reset ~rand:(Rng.bytes rng) ~token in
  let crypto = fresh_crypto () in
  (match
     Quic_packet.decode ~crypto ~sender:Quic_crypto.Server_to_client
       ~reset_tokens:[ token ] wire
   with
  | Quic_packet.Reset_detected t -> Alcotest.(check string) "token" token t
  | _ -> Alcotest.fail "reset not detected");
  match
    Quic_packet.decode ~crypto ~sender:Quic_crypto.Server_to_client
      ~reset_tokens:[ "wrong-token-0123" ] wire
  with
  | Quic_packet.Reset_detected _ -> Alcotest.fail "wrong token matched"
  | _ -> ()

(* --- server + client integration --- *)

let make_pair ?profile ?client_config seed =
  let rng = Rng.create seed in
  let server = Quic_server.create ?profile (Rng.split rng) in
  let client = Quic_client.create ?config:client_config (Rng.split rng) in
  (server, client)

let run_symbol server client symbol =
  match Quic_client.concretize client symbol with
  | None -> []
  | Some (wire, _) ->
      let responses =
        Quic_server.handle_datagram server ~port:(Quic_client.port client) wire
      in
      List.map (Quic_client.absorb client) responses

let abstract_of absorbed =
  List.filter_map
    (function
      | Quic_client.Packet p ->
          Some (Quic_alphabet.apacket_to_string (Quic_alphabet.abstract_packet p))
      | Quic_client.Reset -> Some "RESET"
      | Quic_client.Junk _ -> None)
    absorbed

let handshake_flow () =
  let server, client = make_pair 11L in
  let r1 = abstract_of (run_symbol server client Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "server flight"
    [
      "INITIAL(?,?)[ACK,CRYPTO]"; "HANDSHAKE(?,?)[CRYPTO]"; "HANDSHAKE(?,?)[CRYPTO]";
    ]
    r1;
  let r2 =
    abstract_of (run_symbol server client Quic_alphabet.Handshake_ack_crypto)
  in
  Alcotest.(check (list string)) "handshake done"
    [ "HANDSHAKE(?,?)[ACK]"; "SHORT(?,?)[HANDSHAKE_DONE]" ]
    r2;
  Alcotest.(check bool) "client sees completion" true
    (Quic_client.handshake_complete client);
  Alcotest.(check string) "server confirmed" "confirmed" (Quic_server.phase_name server)

let data_exchange_with_flow_control () =
  let server, client = make_pair 13L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  (* Request: server can only send 50 of 80 bytes, then blocks. *)
  let r3 = abstract_of (run_symbol server client Quic_alphabet.Short_ack_stream) in
  Alcotest.(check (list string)) "blocked response"
    [ "SHORT(?,?)[ACK,STREAM,STREAM_DATA_BLOCKED]" ]
    r3;
  Alcotest.(check int) "50 bytes delivered" 50 (Quic_client.received_stream_bytes client);
  Alcotest.(check bool) "no flow violation" false (Quic_client.flow_violation client);
  (* Raise the limits: the remaining 30 bytes flow. *)
  let r4 = abstract_of (run_symbol server client Quic_alphabet.Short_ack_flow) in
  Alcotest.(check (list string)) "drained" [ "SHORT(?,?)[ACK,STREAM]" ] r4;
  Alcotest.(check int) "80 bytes total" 80 (Quic_client.received_stream_bytes client)

let compliant_sdb_carries_offset () =
  let server, client = make_pair 17L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  let _ = run_symbol server client Quic_alphabet.Short_ack_stream in
  Alcotest.(check (list int)) "offset 50" [ 50 ]
    (Quic_client.stream_data_blocked_values client)

let issue4_sdb_constant_zero () =
  let server, client = make_pair ~profile:Quic_profile.google_like 17L in
  (* google-like demands retry first. *)
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  let _ = run_symbol server client Quic_alphabet.Short_ack_stream in
  Alcotest.(check (list int)) "constant zero (Issue 4)" [ 0 ]
    (Quic_client.stream_data_blocked_values client)

let handshake_done_from_client_closes () =
  let server, client = make_pair 19L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let r = abstract_of (run_symbol server client Quic_alphabet.Handshake_ack_hsd) in
  Alcotest.(check (list string)) "violation close"
    [ "HANDSHAKE(?,?)[CONNECTION_CLOSE]" ]
    r;
  Alcotest.(check string) "closing" "closing" (Quic_server.phase_name server);
  Alcotest.(check bool) "client knows" true (Quic_client.connection_closed client)

let reset_after_close_compliant () =
  let server, client = make_pair 23L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_hsd in
  (* Every subsequent packet gets a stateless reset (prob 1.0). *)
  for _ = 1 to 5 do
    let r = abstract_of (run_symbol server client Quic_alphabet.Short_ack_stream) in
    Alcotest.(check (list string)) "reset" [ "RESET" ] r
  done

let retry_roundtrip_establishes () =
  let server, client = make_pair ~profile:Quic_profile.google_like 29L in
  let r1 = abstract_of (run_symbol server client Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "retry demanded" [ "RETRY(?,?)[]" ] r1;
  (* Token echoed from the same port: handshake proceeds. *)
  let r2 = abstract_of (run_symbol server client Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "handshake flight after retry"
    [
      "INITIAL(?,?)[ACK,CRYPTO]"; "HANDSHAKE(?,?)[CRYPTO]"; "HANDSHAKE(?,?)[CRYPTO]";
    ]
    r2

let issue3_retry_port_bug_blocks_handshake () =
  let server, client =
    make_pair ~profile:Quic_profile.google_like
      ~client_config:{ Quic_client.retry_port_bug = true; pns_reset_on_retry = true }
      31L
  in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  (* The token comes back from a different port: silently dropped,
     connection establishment impossible (Issue 3). *)
  let r2 = abstract_of (run_symbol server client Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "validation fails" [] r2;
  let r3 = abstract_of (run_symbol server client Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "still failing" [] r3

let issue1_strict_profile_aborts_on_pns_reset () =
  let server, client = make_pair ~profile:Quic_profile.strict_retry 37L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let r2 = abstract_of (run_symbol server client Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "aborted (Issue 1)"
    [ "INITIAL(?,?)[CONNECTION_CLOSE]" ]
    r2

let ncid_sequence_numbers () =
  let server, client = make_pair ~profile:Quic_profile.ncid_buggy 41L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  (* Buggy stride 2: sequence numbers 1, 3 violate the +1 property. *)
  Alcotest.(check (list int)) "stride 2" [ 1; 3 ]
    (Quic_client.ncid_sequence_numbers client)

let ping_gets_acked () =
  let server, client = make_pair 43L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  let r = abstract_of (run_symbol server client Quic_alphabet.Short_ack_ping) in
  Alcotest.(check (list string)) "ack" [ "SHORT(?,?)[ACK]" ] r

let path_challenge_echoed () =
  let server, client = make_pair 47L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  match run_symbol server client Quic_alphabet.Short_ack_path_challenge with
  | [ Quic_client.Packet p ] -> (
      match
        List.find_opt
          (fun f -> Frame.kind f = Frame.K_path_response)
          p.Quic_packet.frames
      with
      | Some (Frame.Path_response data) ->
          Alcotest.(check string) "echoes challenge bytes"
            "\x01\x02\x03\x04\x05\x06\x07\x08" data
      | _ -> Alcotest.fail "expected PATH_RESPONSE")
  | _ -> Alcotest.fail "expected one response packet"

let stop_sending_resets_stream () =
  let server, client = make_pair 53L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  let _ = run_symbol server client Quic_alphabet.Short_ack_stream in
  (* Scenario scripting: refuse the server's response stream. *)
  match
    Quic_client.send_frames client Quic_packet.Short
      [ Frame.Stop_sending { stream_id = 0; error = 7 } ]
  with
  | None -> Alcotest.fail "client should have 1-RTT keys"
  | Some (wire, _) -> (
      let responses =
        Quic_server.handle_datagram server ~port:(Quic_client.port client) wire
      in
      match List.map (Quic_client.absorb client) responses with
      | [ Quic_client.Packet p ] -> (
          match
            List.find_opt
              (fun f -> Frame.kind f = Frame.K_reset_stream)
              p.Quic_packet.frames
          with
          | Some (Frame.Reset_stream { stream_id; error; final_size }) ->
              Alcotest.(check int) "stream id" 0 stream_id;
              Alcotest.(check int) "error echoed" 7 error;
              Alcotest.(check int) "final size = bytes sent" 50 final_size
          | _ -> Alcotest.fail "expected RESET_STREAM")
      | _ -> Alcotest.fail "expected one response packet")

let new_token_issued () =
  let server, client = make_pair ~profile:Quic_profile.token_issuing 59L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let r = abstract_of (run_symbol server client Quic_alphabet.Handshake_ack_crypto) in
  Alcotest.(check (list string)) "token in the done flight"
    [ "HANDSHAKE(?,?)[ACK]"; "SHORT(?,?)[HANDSHAKE_DONE,NEW_TOKEN]" ]
    r

let version_negotiation_on_unknown_version () =
  (* A hand-built Initial with a bogus version triggers VN. *)
  let rng = Rng.create 61L in
  let server = Quic_server.create (Rng.split rng) in
  let crypto = Quic_crypto.create () in
  let dcid = "8bytecid" in
  Quic_crypto.install_initial crypto ~dcid;
  let p =
    Quic_packet.make Quic_packet.Initial ~version:0xbadbad ~dcid ~scid:"8bytesrc"
      ~pn:0
      ~frames:[ Frame.Crypto { offset = 0; data = "CH:deadbeef;md=100;msd=50" } ]
  in
  match Quic_packet.encode ~crypto ~sender:Quic_crypto.Client_to_server p with
  | None -> Alcotest.fail "encode failed"
  | Some wire -> (
      match Quic_server.handle_datagram server ~port:5555 wire with
      | [ response ] -> (
          match
            Quic_packet.decode ~crypto ~sender:Quic_crypto.Server_to_client
              ~reset_tokens:[] response
          with
          | Quic_packet.Decoded vp ->
              Alcotest.(check bool) "version negotiation" true
                (vp.Quic_packet.ptype = Quic_packet.Version_negotiation);
              Alcotest.(check int) "offers draft-29" Quic_packet.draft29
                vp.Quic_packet.version
          | _ -> Alcotest.fail "expected a decodable VN packet")
      | _ -> Alcotest.fail "expected one VN response")

let invalid_retry_token_dropped () =
  let server, client = make_pair ~profile:Quic_profile.google_like 67L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  (* Forge a fresh client (wrong token: it never saw the Retry). *)
  let intruder = Quic_client.create (Rng.create 999L) in
  let r = abstract_of (run_symbol server intruder Quic_alphabet.Initial_crypto) in
  Alcotest.(check (list string)) "dropped silently" [] r

let flow_violation_detected () =
  (* The flow-violator server pushes 80 bytes against a 50-byte limit;
     the reference client's accounting flags it (the §6.2.2 property
     "must not send data beyond the advertised limit"). *)
  let server, client = make_pair ~profile:Quic_profile.flow_violator 79L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  let _ = run_symbol server client Quic_alphabet.Short_ack_stream in
  Alcotest.(check int) "whole body pushed" 80
    (Quic_client.received_stream_bytes client);
  Alcotest.(check bool) "violation flagged" true (Quic_client.flow_violation client);
  (* A compliant server with identical interaction never trips it. *)
  let server', client' = make_pair 79L in
  let _ = run_symbol server' client' Quic_alphabet.Initial_crypto in
  let _ = run_symbol server' client' Quic_alphabet.Handshake_ack_crypto in
  let _ = run_symbol server' client' Quic_alphabet.Short_ack_stream in
  Alcotest.(check bool) "compliant clean" false (Quic_client.flow_violation client')

let key_update_roundtrip () =
  let server, client = make_pair 73L in
  let _ = run_symbol server client Quic_alphabet.Initial_crypto in
  let _ = run_symbol server client Quic_alphabet.Handshake_ack_crypto in
  (* First exchange under key generation 0. *)
  let r1 = abstract_of (run_symbol server client Quic_alphabet.Short_ack_stream) in
  Alcotest.(check bool) "gen-0 data flows" true (r1 <> []);
  (* Client-initiated key update: the next short packet flips the key
     phase bit; the server verifies under the next generation, commits,
     and answers at the new phase — which the client can decode. *)
  Quic_client.initiate_key_update client;
  Alcotest.(check int) "client phase 1" 1 (Quic_client.key_phase client);
  (match Quic_client.send_frames client Quic_packet.Short [ Frame.Ping ] with
  | None -> Alcotest.fail "client must hold 1-RTT keys"
  | Some (wire, _) -> (
      let responses =
        Quic_server.handle_datagram server ~port:(Quic_client.port client) wire
      in
      match List.map (Quic_client.absorb client) responses with
      | [ Quic_client.Packet p ] ->
          Alcotest.(check bool) "acked under new keys" true
            (List.exists (fun f -> Frame.kind f = Frame.K_ack) p.Quic_packet.frames)
      | _ -> Alcotest.fail "expected one decodable response after key update"));
  (* Data continues to flow after the rotation. *)
  let r2 = abstract_of (run_symbol server client Quic_alphabet.Short_ack_flow) in
  Alcotest.(check bool) "gen-1 exchange works" true (r2 <> [])

let migration_with_queued_response () =
  (* Connection migration: the client moves to a new port; the server
     challenges the path; the instrumented client QUEUES its response
     (the paper's Listing-1 mechanism) until the learner asks for the
     PATH_RESPONSE symbol; the server then adopts the new path. *)
  let adapter, client = Prognosis_quic.Quic_adapter.create ~seed:83L () in
  let sul = Prognosis_sul.Adapter.to_sul adapter in
  sul.Prognosis_sul.Sul.reset ();
  let step s =
    sul.Prognosis_sul.Sul.step (List.hd (Prognosis_sul.Sul.encode sul [ s ]))
  in
  let _ = step Quic_alphabet.Initial_crypto in
  let _ = step Quic_alphabet.Handshake_ack_crypto in
  (* Before migration, the queue is empty and the symbol unrealizable. *)
  Alcotest.(check int) "queue empty" 0 (Quic_client.queued_frames client);
  Alcotest.(check string) "unrealizable" "NIL"
    (Quic_alphabet.output_to_string (step Quic_alphabet.Short_ack_path_response));
  (* Migrate and send data from the new port: the response must carry a
     PATH_CHALLENGE, and the client queues its answer. *)
  Quic_client.migrate client;
  let out = step Quic_alphabet.Short_ack_ping in
  Alcotest.(check bool) "server challenges the new path" true
    (List.exists
       (fun (a : Quic_alphabet.apacket) ->
         List.mem Frame.K_path_challenge a.Quic_alphabet.frames)
       out);
  Alcotest.(check int) "response queued, not sent" 1
    (Quic_client.queued_frames client);
  (* The learner releases the queued response; the server validates. *)
  let out = step Quic_alphabet.Short_ack_path_response in
  Alcotest.(check string) "response acked" "{SHORT(?,?)[ACK]}"
    (Quic_alphabet.output_to_string out);
  Alcotest.(check int) "queue drained" 0 (Quic_client.queued_frames client);
  (* The new path is validated: no further challenges. *)
  let out = step Quic_alphabet.Short_ack_ping in
  Alcotest.(check bool) "no re-challenge" true
    (not
       (List.exists
          (fun (a : Quic_alphabet.apacket) ->
            List.mem Frame.K_path_challenge a.Quic_alphabet.frames)
          out))

(* --- SUL determinism and learning --- *)

let quic_sul ?profile ?client_config seed =
  Quic_adapter.sul ?profile ?client_config ~seed ()

let sul_deterministic_compliant () =
  let sul = quic_sul 43L in
  let words =
    Quic_alphabet.
      [
        [ Initial_crypto; Handshake_ack_crypto; Short_ack_stream; Short_ack_flow ];
        [ Initial_crypto; Initial_ack_hsd; Short_ack_stream ];
        [ Short_ack_stream; Initial_crypto; Handshake_ack_hsd ];
        [ Initial_crypto; Handshake_ack_crypto; Short_ack_hsd; Short_ack_stream ];
      ]
  in
  List.iter
    (fun w ->
      match Nondet.query Nondet.default sul w with
      | Nondet.Deterministic _ -> ()
      | Nondet.Nondeterministic _ ->
          Alcotest.fail "compliant QUIC SUL must be deterministic")
    words

let issue2_mvfst_nondeterministic_resets () =
  let sul = quic_sul ~profile:Quic_profile.mvfst_like 47L in
  (* Close the connection with a client HANDSHAKE_DONE, then probe. *)
  let word =
    Quic_alphabet.[ Initial_crypto; Handshake_ack_hsd; Short_ack_stream ]
  in
  match
    Nondet.query { Nondet.min_runs = 25; max_runs = 200; agreement = 0.99 } sul word
  with
  | Nondet.Nondeterministic obs ->
      let reset_rate =
        Nondet.frequency obs (fun answer ->
            match List.rev answer with
            | last :: _ -> last = [ Quic_alphabet.abstract_reset ]
            | [] -> false)
      in
      Alcotest.(check bool)
        (Printf.sprintf "reset rate %.2f in (0.6, 0.95)" reset_rate)
        true
        (reset_rate > 0.6 && reset_rate < 0.95)
  | Nondet.Deterministic _ ->
      Alcotest.fail "mvfst-like profile must exhibit the Issue-2 nondeterminism"

let learn_profile ?client_config profile seed =
  let sul = quic_sul ~profile ?client_config seed in
  let rng = Rng.create (Int64.add seed 1000L) in
  let eq =
    Eq_oracle.combine
      [
        Eq_oracle.w_method ~extra_states:1 ();
        Eq_oracle.random_words ~rng ~max_tests:300 ~min_len:1 ~max_len:10;
      ]
  in
  Learn.run ~inputs:Quic_alphabet.all ~sul ~eq ()

let learn_quiche_like () =
  let result = learn_profile Quic_profile.quiche_like 53L in
  let m = result.Learn.model in
  Alcotest.(check bool)
    (Printf.sprintf "states %d in [4..16]" (Mealy.size m))
    true
    (Mealy.size m >= 4 && Mealy.size m <= 16);
  (* The learned model replays the handshake. *)
  let out =
    Mealy.run m Quic_alphabet.[ Initial_crypto; Handshake_ack_crypto ]
  in
  match List.map Quic_alphabet.output_to_string out with
  | [ first; second ] ->
      Alcotest.(check bool) "first is server flight" true
        (String.length first > 10);
      Alcotest.(check bool) "second contains HANDSHAKE_DONE" true
        (let rec contains h n i =
           i + String.length n <= String.length h
           && (String.sub h i (String.length n) = n || contains h n (i + 1))
         in
         contains second "HANDSHAKE_DONE" 0)
  | _ -> Alcotest.fail "unexpected output arity"

let issue1_model_size_difference () =
  (* The tolerant-retry and strict-retry servers learn models of
     different sizes: the paper's Issue-1 signal (§6.2.3). *)
  let tolerant = learn_profile Quic_profile.google_like 59L in
  let strict = learn_profile Quic_profile.strict_retry 61L in
  let st = Mealy.size tolerant.Learn.model and ss = Mealy.size strict.Learn.model in
  Alcotest.(check bool)
    (Printf.sprintf "tolerant(%d) > strict(%d)" st ss)
    true (st > ss)

(* --- decoders under structurally valid mutations --- *)

(* Random or mutated bytes mostly die at the first checksum or AEAD
   tag. These inputs are mutated *before* those are applied, so the
   length fields, frame types and frame-length varints behind them
   reach the decoders. *)

type fuzz_case = {
  ptype : int;  (** 0-3: long-header type bits; 4: short header *)
  cid_len : int option;  (** replaces the dcid length byte *)
  token_len : int option;  (** Initial: replaces the token-length varint *)
  packet_len : int option;  (** replaces the packet-length varint *)
  frames : Frame.t list;
  pokes : (int * int) list;  (** (position, byte) writes into the plaintext *)
  ip_total : int option;  (** replaces the IPv4 total length *)
  udp_len : int option;  (** replaces the UDP length *)
}

(* RFC 1071 over [b[off, off+len)] plus [acc]. *)
let ones_sum acc b off len =
  let sum = ref acc in
  for i = 0 to (len / 2) - 1 do
    sum := !sum + Bytes.get_uint16_be b (off + (2 * i))
  done;
  if len land 1 = 1 then
    sum := !sum + (Bytes.get_uint8 b (off + len - 1) lsl 8);
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

(* Rewrite the IPv4 total length and the UDP length of a wrap_udp
   datagram, then recompute both checksums over the rewritten fields
   (the UDP one over as many bytes as its new length claims, when they
   exist), so both checksum checks pass. *)
let relength_udp datagram ~ip_total ~udp_len =
  let b = Bytes.of_string datagram in
  Option.iter (Bytes.set_uint16_be b 2) ip_total;
  Option.iter (Bytes.set_uint16_be b 24) udp_len;
  let udp_len = Bytes.get_uint16_be b 24 in
  if udp_len >= 8 && 20 + udp_len <= Bytes.length b then begin
    Bytes.set_uint16_be b 26 0;
    let pseudo =
      Bytes.get_uint16_be b 12 + Bytes.get_uint16_be b 14
      + Bytes.get_uint16_be b 16 + Bytes.get_uint16_be b 18 + 17 + udp_len
    in
    let sum = ones_sum pseudo b 20 udp_len in
    Bytes.set_uint16_be b 26 (if sum = 0 then 0xFFFF else sum)
  end;
  Bytes.set_uint16_be b 10 0;
  Bytes.set_uint16_be b 10 (ones_sum 0 b 0 20);
  Bytes.to_string b

(* A protected packet from the fields of [c], sealed with [crypto]
   (Retry gets its integrity tag) after every mutation. *)
let build_mutated c ~crypto ~sender ~dcid ~scid =
  let token = "tok-0123456789" in
  let pn = 7 in
  let plaintext = Bytes.of_string (Frame.encode_all c.frames) in
  List.iter
    (fun (pos, v) ->
      if Bytes.length plaintext > 0 then
        Bytes.set_uint8 plaintext (pos mod Bytes.length plaintext) v)
    c.pokes;
  let plaintext = Bytes.to_string plaintext in
  let header = Buffer.create 64 in
  let add_varint v = Buffer.add_string header (Varint.encode_to_string v) in
  let add_u32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int v);
    Buffer.add_bytes header b
  in
  let level =
    match c.ptype with
    | 0 -> Quic_crypto.Initial_level
    | 2 -> Quic_crypto.Handshake_level
    | _ -> Quic_crypto.Application_level
  in
  if c.ptype = 4 then begin
    Buffer.add_char header '\x43';
    Buffer.add_string header dcid;
    add_u32 pn
  end
  else begin
    Buffer.add_char header (Char.chr (0xC3 lor (c.ptype lsl 4)));
    add_u32 Quic_packet.draft29;
    Buffer.add_char header
      (Char.chr (Option.value c.cid_len ~default:(String.length dcid)));
    Buffer.add_string header dcid;
    Buffer.add_char header (Char.chr (String.length scid));
    Buffer.add_string header scid;
    if c.ptype = 0 then begin
      add_varint (Option.value c.token_len ~default:(String.length token));
      Buffer.add_string header token
    end;
    if c.ptype <> 3 then begin
      add_varint
        (Option.value c.packet_len
           ~default:(4 + String.length plaintext + Quic_crypto.tag_length));
      add_u32 pn
    end
  end;
  let header = Buffer.contents header in
  if c.ptype = 3 then
    header ^ token ^ Quic_packet.retry_integrity_tag ~dcid ~scid ~token
  else
    match Quic_crypto.seal crypto level sender ~pn ~header plaintext with
    | Some sealed -> header ^ sealed
    | None -> header ^ plaintext

let gen_fuzz_case =
  let open QCheck2.Gen in
  let length_field =
    opt (oneof [ int_range 0 80; int_range 0 Varint.max_value ])
  in
  let frame =
    oneofl
      Frame.
        [
          Padding 2;
          Ping;
          Ack { largest = 3; delay = 0; first_range = 1 };
          Crypto { offset = 0; data = "CH:0123456789abcdef;md=100;msd=50" };
          Crypto { offset = 0; data = "CFIN" };
          Stream { id = 0; offset = 0; data = "GET /index"; fin = true };
          Max_data 1000;
          Max_stream_data { stream_id = 0; max = 200 };
          New_connection_id
            {
              seq = 1;
              retire_prior = 0;
              cid = "abcdefgh";
              reset_token = String.make 16 't';
            };
          Path_challenge "12345678";
          Path_response "87654321";
          Stop_sending { stream_id = 0; error = 1 };
          Connection_close
            { error = 10; frame_type = 0; reason = "bye"; app = false };
          Handshake_done;
        ]
  in
  (* frame-type values, varint length prefixes and plain noise *)
  let poke_byte =
    oneof
      [
        int_range 0 0x1F;
        oneofl [ 0x40; 0x7F; 0x80; 0xBF; 0xC0; 0xFF ];
        int_range 0 255;
      ]
  in
  let* ptype = int_range 0 4 in
  let* cid_len = opt ~ratio:0.3 (int_range 0 255) in
  let* token_len = length_field in
  let* packet_len = length_field in
  let* frames = list_size (int_range 0 4) frame in
  let* pokes = list_size (int_range 0 3) (pair (int_range 0 200) poke_byte) in
  let* ip_total = opt ~ratio:0.3 (int_range 0 400) in
  let+ udp_len = opt ~ratio:0.3 (int_range 0 400) in
  { ptype; cid_len; token_len; packet_len; frames; pokes; ip_total; udp_len }

(* Unmutated, the builder's packets pass every check, so the mutations
   above are what the decoders see. *)
let fuzz_builder_valid () =
  let crypto = fresh_crypto () in
  List.iter
    (fun ptype ->
      let c =
        {
          ptype;
          cid_len = None;
          token_len = None;
          packet_len = None;
          frames = [ Frame.Ping; Frame.Max_data 7 ];
          pokes = [];
          ip_total = None;
          udp_len = None;
        }
      in
      let quic =
        build_mutated c ~crypto ~sender:Quic_crypto.Client_to_server
          ~dcid:"8bytecid" ~scid:"scid-456"
      in
      let udp =
        Prognosis_sul.Inet.wrap_udp ~src:1 ~dst:2 ~src_port:3 ~dst_port:4 quic
      in
      Alcotest.(check string) "relength without changes" udp
        (relength_udp udp ~ip_total:None ~udp_len:None);
      (match Prognosis_sul.Inet.unwrap_udp udp with
      | Ok (_, payload) -> Alcotest.(check string) "udp payload" quic payload
      | Error e -> Alcotest.fail e);
      match
        Quic_packet.decode ~crypto ~sender:Quic_crypto.Client_to_server
          ~reset_tokens:[] quic
      with
      | Quic_packet.Decoded p ->
          Alcotest.(check int)
            (Printf.sprintf "type %d frames" ptype)
            (if ptype = 3 then 0 else 2)
            (List.length p.Quic_packet.frames)
      | Quic_packet.Reset_detected _ -> Alcotest.fail "reset"
      | Quic_packet.Undecodable e -> Alcotest.failf "type %d: %s" ptype e)
    [ 0; 1; 2; 3; 4 ]

let prop_decoders_never_raise =
  QCheck2.Test.make ~count:1500
    ~name:
      "mutated lengths, frame types and varints under valid checksums \
       and tags never raise"
    QCheck2.Gen.(
      pair gen_fuzz_case (int_range 0 (List.length Quic_profile.all - 1)))
    (fun (c, profile) ->
      let profile = List.nth Quic_profile.all profile in
      let server, client = make_pair ~profile 3L in
      (* the client's initial keys come from the dcid of its first
         Initial; a server's from the dcid it is sent *)
      let odcid =
        match Quic_client.concretize client Quic_alphabet.Initial_crypto with
        | Some (wire, _) -> String.sub wire 6 Quic_packet.cid_length
        | None -> Alcotest.fail "no initial"
      in
      let crypto = fresh_crypto () in
      let to_client = Quic_crypto.create () in
      Quic_crypto.install_initial to_client ~dcid:odcid;
      let to_server = Quic_crypto.create () in
      Quic_crypto.install_initial to_server ~dcid:"8bytecid";
      let datagrams =
        [
          ( `Decoder,
            build_mutated c ~crypto ~sender:Quic_crypto.Client_to_server
              ~dcid:"8bytecid" ~scid:"scid-456" );
          ( `Server,
            build_mutated c ~crypto:to_server
              ~sender:Quic_crypto.Client_to_server ~dcid:"8bytecid"
              ~scid:"scid-456" );
          ( `Client,
            build_mutated c ~crypto:to_client
              ~sender:Quic_crypto.Server_to_client ~dcid:"cl-scid8"
              ~scid:"sv-scid8" );
        ]
      in
      List.iter
        (fun (target, quic) ->
          let udp =
            relength_udp
              (Prognosis_sul.Inet.wrap_udp ~src:0x0A000001 ~dst:0x0A000002
                 ~src_port:50000 ~dst_port:443 quic)
              ~ip_total:c.ip_total ~udp_len:c.udp_len
          in
          let payloads =
            match Prognosis_sul.Inet.unwrap_udp udp with
            | Ok (_, payload) -> [ quic; payload ]
            | Error _ -> [ quic ]
          in
          List.iter
            (fun payload ->
              match target with
              | `Decoder ->
                  ignore
                    (Quic_packet.decode ~crypto
                       ~sender:Quic_crypto.Client_to_server
                       ~reset_tokens:[ String.make 16 't' ] payload)
              | `Server ->
                  ignore
                    (Quic_server.handle_datagram server ~port:50000 payload)
              | `Client -> ignore (Quic_client.absorb client payload))
            payloads)
        datagrams;
      true)

(* --- TCP and DTLS datagrams under structurally valid mutations --- *)

module Inet = Prognosis_sul.Inet
module Tcp_wire = Prognosis_tcp.Tcp_wire
module Tcp_server = Prognosis_tcp.Tcp_server
module Dtls_wire = Prognosis_dtls.Dtls_wire
module Dtls_crypto = Prognosis_dtls.Dtls_crypto
module Dtls_server = Prognosis_dtls.Dtls_server
module Dtls_client = Prognosis_dtls.Dtls_client
module Dtls_alphabet = Prognosis_dtls.Dtls_alphabet

(* Rewrite the IPv4 total length of a wrap_tcp datagram and recompute
   the header checksum. *)
let relength_tcp datagram ~ip_total =
  let b = Bytes.of_string datagram in
  Option.iter (Bytes.set_uint16_be b 2) ip_total;
  Bytes.set_uint16_be b 10 0;
  Bytes.set_uint16_be b 10 (ones_sum 0 b 0 20);
  Bytes.to_string b

(* Segments the reference client and the server send: every option
   kind, data, FIN and RST. *)
let tcp_templates =
  let seg ?options ?payload flags =
    Tcp_wire.make ?options ?payload ~src_port:40000 ~dst_port:443 ~seq:1000
      ~ack:5000
      (Tcp_wire.flags_of_string flags)
  in
  Tcp_wire.
    [|
      seg ~options:[ Mss 1460; Sack_permitted ] "S";
      seg ~options:[ Mss 1400 ] "SA";
      seg ~options:[ Window_scale 7; Timestamps { value = 1; echo = 2 } ] "A";
      seg ~payload:"D" "AP";
      seg "AF";
      seg "R";
      seg "AR";
    |]

type tcp_case = {
  template : int;
  stage : int;  (** server state: 0 listen, 1 after a SYN, 2 established *)
  resize : int option;  (** new segment length, NOP-padded when longer *)
  data_offset : int option;  (** replaces the data-offset nibble *)
  tpokes : (int * int) list;  (** (position, byte) writes into the segment *)
  tcp_ip_total : int option;
}

let gen_tcp_case =
  let open QCheck2.Gen in
  (* option kinds, option lengths, flag bits and plain noise *)
  let poke_byte =
    oneof
      [
        oneofl [ 0; 1; 2; 3; 4; 8; 10; 40; 0xFF ];
        int_range 0 0x3F;
        int_range 0 255;
      ]
  in
  let* template = int_range 0 (Array.length tcp_templates - 1) in
  let* stage = int_range 0 2 in
  let* resize = opt ~ratio:0.3 (int_range 0 72) in
  let* data_offset = opt ~ratio:0.5 (int_range 0 15) in
  let* tpokes = list_size (int_range 0 4) (pair (int_range 0 80) poke_byte) in
  let+ tcp_ip_total = opt ~ratio:0.3 (int_range 0 120) in
  { template; stage; resize; data_offset; tpokes; tcp_ip_total }

let unmutated_tcp template =
  {
    template;
    stage = 0;
    resize = None;
    data_offset = None;
    tpokes = [];
    tcp_ip_total = None;
  }

(* The mutated segment, its checksum recomputed over what it now
   holds. *)
let build_tcp c =
  let wire = Tcp_wire.encode tcp_templates.(c.template) in
  let b =
    match c.resize with
    | None -> Bytes.of_string wire
    | Some n ->
        Bytes.init n (fun i ->
            if i < String.length wire then wire.[i] else '\x01')
  in
  let n = Bytes.length b in
  Option.iter
    (fun o -> if n > 12 then Bytes.set_uint8 b 12 (o lsl 4))
    c.data_offset;
  List.iter
    (fun (pos, v) -> if n > 0 then Bytes.set_uint8 b (pos mod n) v)
    c.tpokes;
  if n >= 18 then begin
    Bytes.set_uint16_be b 16 0;
    Bytes.set_uint16_be b 16 (ones_sum 0 b 0 n)
  end;
  Bytes.to_string b

let tcp_server_at stage =
  let server = Tcp_server.create (Rng.create 11L) in
  let client_seg flags ~seq ~ack =
    Tcp_wire.make ~src_port:40000 ~dst_port:443 ~seq ~ack
      (Tcp_wire.flags_of_string flags)
  in
  (if stage >= 1 then
     match Tcp_server.handle server (client_seg "S" ~seq:999 ~ack:0) with
     | [ syn_ack ] when stage >= 2 ->
         let ack = Tcp_wire.seq_add syn_ack.Tcp_wire.seq 1 in
         ignore (Tcp_server.handle server (client_seg "A" ~seq:1000 ~ack))
     | _ -> ());
  server

(* Unmutated, the templates pass every check. *)
let fuzz_tcp_builder_valid () =
  Array.iteri
    (fun template seg ->
      let wire = build_tcp (unmutated_tcp template) in
      Alcotest.(check string) "rebuilt" (Tcp_wire.encode seg) wire;
      let datagram =
        relength_tcp (Inet.wrap_tcp ~src:1 ~dst:2 wire) ~ip_total:None
      in
      Alcotest.(check (result string string))
        "unwrap" (Ok wire) (Inet.unwrap_tcp datagram);
      Alcotest.(check bool)
        "decodes" true
        (Result.is_ok (Tcp_wire.decode wire)))
    tcp_templates;
  Alcotest.(check string)
    "established" "ESTABLISHED"
    (Tcp_server.state_to_string (Tcp_server.state (tcp_server_at 2)))

let prop_tcp_never_raises =
  QCheck2.Test.make ~count:1500
    ~name:
      "TCP: mutated offsets, options and lengths under valid checksums \
       never raise"
    gen_tcp_case (fun c ->
      let wire = build_tcp c in
      let datagram =
        relength_tcp
          (Inet.wrap_tcp ~src:0x0A000001 ~dst:0x0A000002 wire)
          ~ip_total:c.tcp_ip_total
      in
      let segments =
        match Inet.unwrap_tcp datagram with
        | Ok payload -> [ wire; payload ]
        | Error _ -> [ wire ]
      in
      List.iter
        (fun segment ->
          ignore (Tcp_wire.decode segment);
          ignore (Tcp_server.handle_bytes (tcp_server_at c.stage) segment))
        segments;
      true)

(* A MiniDTLS client and server driven through the first [stage]
   symbols of a full handshake, and record-protection keys equal to
   theirs, derived from the randoms and premaster their plaintext
   records carry. *)
let dtls_at stage =
  let rng = Rng.create 21L in
  let server = Dtls_server.create (Rng.split rng) in
  let client = Dtls_client.create (Rng.split rng) in
  let keys = Dtls_crypto.create () in
  let client_random = ref "" in
  let server_random = ref "" in
  let premaster = ref "" in
  let after prefix body =
    let n = String.length prefix in
    if String.length body >= n && String.sub body 0 n = prefix then
      Some (String.sub body n (String.length body - n))
    else None
  in
  let note (r : Dtls_wire.record_) =
    match Dtls_wire.decode_handshake r.Dtls_wire.payload with
    | Error _ -> ()
    | Ok h -> (
        let body = h.Dtls_wire.body in
        Option.iter
          (fun rest -> client_random := List.hd (String.split_on_char ';' rest))
          (after "CR:" body);
        Option.iter (fun sr -> server_random := sr) (after "SR:" body);
        match after "PMS:" body with Some p -> premaster := p | None -> ())
  in
  List.iteri
    (fun i symbol ->
      if i < stage then
        match Dtls_client.concretize client symbol with
        | None -> ()
        | Some (wire, record) ->
            note record;
            List.iter
              (fun response ->
                Option.iter note (Dtls_client.absorb client response))
              (Dtls_server.handle_datagram server wire))
    Dtls_alphabet.
      [
        Client_hello; Client_hello; Client_key_exchange; Change_cipher_spec;
        Finished;
      ];
  if !premaster <> "" then
    Dtls_crypto.derive_master keys ~client_random:!client_random
      ~server_random:!server_random ~premaster:!premaster;
  (server, client, keys)

type dtls_template = {
  content : int;
  epoch : int;
  handshake : (int * string) option;  (** message type and body *)
  plain : string;  (** the payload of a non-handshake record *)
}

let dtls_templates =
  let hs epoch t body =
    { content = 22; epoch; handshake = Some (t, body); plain = "" }
  in
  let rc epoch content plain = { content; epoch; handshake = None; plain } in
  [|
    hs 0 1 "CR:0123456789abcdef;COOKIE:";
    hs 0 3 "0011223344556677";
    hs 0 2 "SR:fedcba9876543210";
    hs 0 11 "CERT:minidtls-self-signed";
    hs 0 14 "";
    hs 0 16 "PMS:00112233aabbccdd";
    rc 0 20 "\x01";
    hs 1 20 "01234567";
    rc 1 23 "ping";
    rc 0 21 "\x01\x00";
    rc 1 21 "\x02\x0a";
  |]

type dtls_case = {
  dtemplate : int;
  dstage : int;  (** handshake symbols both endpoints have seen (0-5) *)
  ctype : int option;  (** replaces the content-type byte *)
  version : int option;
  rec_epoch : int option;  (** replaces the epoch; sealed under it *)
  record_len : int option;  (** replaces the record length field *)
  hs_type : int option;
  hs_len : int option;  (** replaces the 24-bit handshake length *)
  frag_offset : int option;
  frag_len : int option;
  dpokes : (int * int) list;  (** (position, byte) writes, plaintext *)
  dtls_ip_total : int option;
  dtls_udp_len : int option;
}

let gen_dtls_case =
  let open QCheck2.Gen in
  let u24 = oneof [ int_range 0 64; int_range 0 0xFFFFFF ] in
  let* dtemplate = int_range 0 (Array.length dtls_templates - 1) in
  let* dstage = int_range 0 5 in
  let* ctype = opt ~ratio:0.2 (oneof [ int_range 19 24; int_range 0 255 ]) in
  let* version = opt ~ratio:0.1 (oneofl [ 0xFEFD; 0xFEFF; 0x0303; 0 ]) in
  let* rec_epoch = opt ~ratio:0.2 (int_range 0 3) in
  let* record_len =
    opt ~ratio:0.3 (oneof [ int_range 0 80; int_range 0 0xFFFF ])
  in
  let* hs_type =
    opt ~ratio:0.2
      (oneof [ oneofl [ 1; 2; 3; 11; 14; 16; 20 ]; int_range 0 255 ])
  in
  let* hs_len = opt ~ratio:0.3 u24 in
  let* frag_offset = opt ~ratio:0.1 u24 in
  let* frag_len = opt ~ratio:0.2 u24 in
  let* dpokes =
    list_size (int_range 0 3) (pair (int_range 0 60) (int_range 0 255))
  in
  let* dtls_ip_total = opt ~ratio:0.2 (int_range 0 200) in
  let+ dtls_udp_len = opt ~ratio:0.2 (int_range 0 200) in
  {
    dtemplate;
    dstage;
    ctype;
    version;
    rec_epoch;
    record_len;
    hs_type;
    hs_len;
    frag_offset;
    frag_len;
    dpokes;
    dtls_ip_total;
    dtls_udp_len;
  }

let unmutated_dtls dtemplate =
  {
    dtemplate;
    dstage = 5;
    ctype = None;
    version = None;
    rec_epoch = None;
    record_len = None;
    hs_type = None;
    hs_len = None;
    frag_offset = None;
    frag_len = None;
    dpokes = [];
    dtls_ip_total = None;
    dtls_udp_len = None;
  }

(* The mutated record, sealed under its (possibly mutated) epoch with
   [keys] for [sender] when the keys exist, so its tag checks. *)
let build_dtls c ~keys ~sender =
  let t = dtls_templates.(c.dtemplate) in
  let u24 b off v =
    Bytes.set_uint8 b off ((v lsr 16) land 0xFF);
    Bytes.set_uint16_be b (off + 1) (v land 0xFFFF)
  in
  let plaintext =
    match t.handshake with
    | None -> Bytes.of_string t.plain
    | Some (msg_type, body) ->
        let n = String.length body in
        let b = Bytes.create (12 + n) in
        Bytes.set_uint8 b 0 (Option.value c.hs_type ~default:msg_type);
        u24 b 1 (Option.value c.hs_len ~default:n);
        Bytes.set_uint16_be b 4 2;
        u24 b 6 (Option.value c.frag_offset ~default:0);
        u24 b 9 (Option.value c.frag_len ~default:n);
        Bytes.blit_string body 0 b 12 n;
        b
  in
  let n = Bytes.length plaintext in
  List.iter
    (fun (pos, v) -> if n > 0 then Bytes.set_uint8 plaintext (pos mod n) v)
    c.dpokes;
  let epoch = Option.value c.rec_epoch ~default:t.epoch in
  let seq = 3 in
  let payload =
    let plaintext = Bytes.to_string plaintext in
    if epoch >= 1 then
      Option.value ~default:plaintext
        (Dtls_crypto.seal keys sender ~epoch ~seq plaintext)
    else plaintext
  in
  let n = String.length payload in
  let b = Bytes.create (13 + n) in
  Bytes.set_uint8 b 0 (Option.value c.ctype ~default:t.content);
  Bytes.set_uint16_be b 1 (Option.value c.version ~default:0xFEFD);
  Bytes.set_uint16_be b 3 epoch;
  Bytes.set_uint16_be b 5 0;
  Bytes.set_int32_be b 7 (Int32.of_int seq);
  Bytes.set_uint16_be b 11 (Option.value c.record_len ~default:n);
  Bytes.blit_string payload 0 b 13 n;
  Bytes.to_string b

(* Unmutated, the templates decode (sealed ones under the endpoints'
   keys) and a full handshake leaves both endpoints established. *)
let fuzz_dtls_builder_valid () =
  let server, client, keys = dtls_at 5 in
  Alcotest.(check bool)
    "handshake complete" true
    (Dtls_client.handshake_complete client);
  let client_keys = (keys, Dtls_crypto.Client_write) in
  Array.iteri
    (fun dtemplate t ->
      let wire =
        build_dtls (unmutated_dtls dtemplate) ~keys
          ~sender:Dtls_crypto.Client_write
      in
      match Dtls_wire.decode_record ~keys:client_keys wire with
      | Error e -> Alcotest.failf "template %d: %s" dtemplate e
      | Ok r -> (
          Alcotest.(check int) "epoch" t.epoch r.Dtls_wire.epoch;
          match t.handshake with
          | None ->
              Alcotest.(check string) "payload" t.plain r.Dtls_wire.payload
          | Some (_, body) -> (
              match Dtls_wire.decode_handshake r.Dtls_wire.payload with
              | Ok h -> Alcotest.(check string) "body" body h.Dtls_wire.body
              | Error e -> Alcotest.fail e)))
    dtls_templates;
  (* the established server echoes a sealed APP_DATA *)
  let app =
    build_dtls (unmutated_dtls 8) ~keys ~sender:Dtls_crypto.Client_write
  in
  Alcotest.(check int)
    "echo" 1
    (List.length (Dtls_server.handle_datagram server app))

let prop_dtls_never_raises =
  QCheck2.Test.make ~count:1500
    ~name:
      "DTLS: mutated record and handshake headers under valid tags never \
       raise"
    gen_dtls_case (fun c ->
      List.iter
        (fun sender ->
          let server, client, keys = dtls_at c.dstage in
          let wire = build_dtls c ~keys ~sender in
          let datagram =
            relength_udp
              (Inet.wrap_udp ~src:0x0A000001 ~dst:0x0A000002 ~src_port:50000
                 ~dst_port:4433 wire)
              ~ip_total:c.dtls_ip_total ~udp_len:c.dtls_udp_len
          in
          let records =
            match Inet.unwrap_udp datagram with
            | Ok (_, payload) -> [ wire; payload ]
            | Error _ -> [ wire ]
          in
          List.iter
            (fun record ->
              (match Dtls_wire.decode_record ~keys:(keys, sender) record with
              | Ok r -> ignore (Dtls_wire.decode_handshake r.Dtls_wire.payload)
              | Error _ -> ());
              ignore (Dtls_wire.decode_record record);
              if String.length record > 13 then
                ignore
                  (Dtls_wire.decode_handshake
                     (String.sub record 13 (String.length record - 13)));
              match sender with
              | Dtls_crypto.Client_write ->
                  ignore (Dtls_server.handle_datagram server record)
              | Dtls_crypto.Server_write ->
                  Option.iter
                    (fun r -> ignore (Dtls_alphabet.abstract r))
                    (Dtls_client.absorb client record))
            records)
        [ Dtls_crypto.Client_write; Dtls_crypto.Server_write ];
      true)

let () =
  Alcotest.run "quic"
    [
      ( "varint",
        [
          Alcotest.test_case "roundtrip" `Quick varint_roundtrip;
          Alcotest.test_case "lengths" `Quick varint_lengths;
          Alcotest.test_case "rejects" `Quick varint_rejects;
        ] );
      ( "crypto",
        [
          Alcotest.test_case "seal/open" `Quick crypto_seal_open;
          Alcotest.test_case "tamper detection" `Quick crypto_detects_tamper;
          Alcotest.test_case "level isolation" `Quick crypto_level_isolation;
          Alcotest.test_case "direction isolation" `Quick crypto_direction_isolation;
        ] );
      ( "frames",
        [
          Alcotest.test_case "roundtrip all 20" `Quick frame_roundtrip;
          Alcotest.test_case "20 kinds" `Quick frame_kinds_cover_all_20;
          Alcotest.test_case "bad input" `Quick frame_bad_input;
          Alcotest.test_case "ack eliciting" `Quick frame_ack_eliciting;
        ] );
      ( "packets",
        [
          Alcotest.test_case "initial" `Quick packet_initial_roundtrip;
          Alcotest.test_case "handshake" `Quick packet_handshake_roundtrip;
          Alcotest.test_case "short" `Quick packet_short_roundtrip;
          Alcotest.test_case "retry" `Quick packet_retry_roundtrip;
          Alcotest.test_case "wrong keys" `Quick packet_wrong_keys_undecodable;
          Alcotest.test_case "stateless reset" `Quick stateless_reset_detection;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "builder makes valid packets" `Quick
            fuzz_builder_valid;
          QCheck_alcotest.to_alcotest prop_decoders_never_raise;
          Alcotest.test_case "TCP builder makes valid segments" `Quick
            fuzz_tcp_builder_valid;
          QCheck_alcotest.to_alcotest prop_tcp_never_raises;
          Alcotest.test_case "DTLS builder makes valid records" `Quick
            fuzz_dtls_builder_valid;
          QCheck_alcotest.to_alcotest prop_dtls_never_raises;
        ] );
      ( "connection",
        [
          Alcotest.test_case "handshake flow" `Quick handshake_flow;
          Alcotest.test_case "flow control" `Quick data_exchange_with_flow_control;
          Alcotest.test_case "compliant SDB offset" `Quick compliant_sdb_carries_offset;
          Alcotest.test_case "issue 4: SDB zero" `Quick issue4_sdb_constant_zero;
          Alcotest.test_case "client HSD closes" `Quick handshake_done_from_client_closes;
          Alcotest.test_case "reset after close" `Quick reset_after_close_compliant;
          Alcotest.test_case "retry establishes" `Quick retry_roundtrip_establishes;
          Alcotest.test_case "issue 3: port bug" `Quick issue3_retry_port_bug_blocks_handshake;
          Alcotest.test_case "issue 1: strict abort" `Quick issue1_strict_profile_aborts_on_pns_reset;
          Alcotest.test_case "ncid sequences" `Quick ncid_sequence_numbers;
          Alcotest.test_case "ping acked" `Quick ping_gets_acked;
          Alcotest.test_case "path challenge echoed" `Quick path_challenge_echoed;
          Alcotest.test_case "stop_sending resets" `Quick stop_sending_resets_stream;
          Alcotest.test_case "new token issued" `Quick new_token_issued;
          Alcotest.test_case "version negotiation" `Quick version_negotiation_on_unknown_version;
          Alcotest.test_case "invalid retry token" `Quick invalid_retry_token_dropped;
          Alcotest.test_case "key update" `Quick key_update_roundtrip;
          Alcotest.test_case "flow violation detected" `Quick flow_violation_detected;
          Alcotest.test_case "migration + queue" `Quick migration_with_queued_response;
        ] );
      ( "learning",
        [
          Alcotest.test_case "deterministic" `Quick sul_deterministic_compliant;
          Alcotest.test_case "issue 2: mvfst nondet" `Slow issue2_mvfst_nondeterministic_resets;
          Alcotest.test_case "learn quiche-like" `Slow learn_quiche_like;
          Alcotest.test_case "issue 1: model sizes" `Slow issue1_model_size_difference;
        ] );
    ]
