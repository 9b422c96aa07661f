module Rng = Prognosis_sul.Rng
module W = Dtls_wire
module C = Dtls_crypto

type config = { require_cookie : bool; strict_ccs : bool }

let default_config = { require_cookie = true; strict_ccs = true }

type phase =
  | Waiting_hello
  | Waiting_verified_hello
  | Waiting_key_exchange
  | Waiting_ccs
  | Waiting_finished
  | Established
  | Closed

let phase_to_string = function
  | Waiting_hello -> "waiting-hello"
  | Waiting_verified_hello -> "waiting-verified-hello"
  | Waiting_key_exchange -> "waiting-key-exchange"
  | Waiting_ccs -> "waiting-ccs"
  | Waiting_finished -> "waiting-finished"
  | Established -> "established"
  | Closed -> "closed"

type t = {
  cfg : config;
  rng : Rng.t;
  crypto : C.t;
  write_keys : (C.t * C.direction) option;  (** [Some (crypto, Server_write)] *)
  read_keys : (C.t * C.direction) option;  (** [Some (crypto, Client_write)] *)
  mutable phase : phase;
  mutable cookie : string;
  mutable client_random : string;
  mutable server_random : string;
  mutable read_epoch : int;
  mutable write_epoch : int;
  mutable write_seq : int; (* per current write epoch *)
  mutable message_seq : int;
}

let reset t =
  C.reset t.crypto;
  t.phase <- Waiting_hello;
  t.cookie <- "";
  t.client_random <- "";
  t.server_random <- "";
  t.read_epoch <- 0;
  t.write_epoch <- 0;
  t.write_seq <- 0;
  t.message_seq <- 0

let create ?(config = default_config) rng =
  let crypto = C.create () in
  let t =
    {
      cfg = config;
      rng;
      crypto;
      write_keys = Some (crypto, C.Server_write);
      read_keys = Some (crypto, C.Client_write);
      phase = Waiting_hello;
      cookie = "";
      client_random = "";
      server_random = "";
      read_epoch = 0;
      write_epoch = 0;
      write_seq = 0;
      message_seq = 0;
    }
  in
  reset t;
  t

let phase_name t = phase_to_string t.phase

(* Each response is written once, after [headroom] bytes for the
   caller's framing, and sealed in place from epoch 1 on (epoch-1
   sends never happen before keys exist). *)
let emit t ~headroom content payload =
  let seq = t.write_seq in
  t.write_seq <- seq + 1;
  W.write_record ?keys:t.write_keys ~headroom
    { W.content; epoch = t.write_epoch; seq; payload }

let emit_handshake t ~headroom msg_type body =
  let message_seq = t.message_seq in
  t.message_seq <- message_seq + 1;
  let seq = t.write_seq in
  t.write_seq <- seq + 1;
  W.write_handshake_record ?keys:t.write_keys ~headroom ~epoch:t.write_epoch
    ~seq
    { W.msg_type; message_seq; body }

let fatal_alert t ~headroom description =
  t.phase <- Closed;
  (* fatal(2), description *)
  let body = Bytes.make 2 '\x02' in
  Bytes.set body 1 (Char.chr description);
  [ emit t ~headroom W.Alert (Bytes.unsafe_to_string body) ]

(* [prefix] at [s[off..]], compared where it lies. *)
let rec matches prefix s off i =
  i = String.length prefix
  || (s.[off + i] = prefix.[i] && matches prefix s off (i + 1))

let has_prefix prefix s off =
  off + String.length prefix <= String.length s && matches prefix s off 0

(* ClientHello body: "CR:<random>;COOKIE:<cookie>", exactly one ';', a
   non-empty random. *)
let parse_client_hello body =
  match String.index_opt body ';' with
  | Some semi
    when semi > 3
         && has_prefix "CR:" body 0
         && has_prefix "COOKIE:" body (semi + 1)
         && not (String.contains_from body (semi + 1) ';') ->
      let cookie = semi + 8 in
      Some
        ( String.sub body 3 (semi - 3),
          String.sub body cookie (String.length body - cookie) )
  | Some _ | None -> None

let hello_flight t ~headroom =
  [
    emit_handshake t ~headroom W.Server_hello ("SR:" ^ t.server_random);
    emit_handshake t ~headroom W.Certificate "CERT:minidtls-self-signed";
    emit_handshake t ~headroom W.Server_hello_done "";
  ]

let server_flight t ~headroom =
  t.server_random <- Rng.hex t.rng 8;
  t.phase <- Waiting_key_exchange;
  hello_flight t ~headroom

let handle_client_hello t ~headroom body =
  match parse_client_hello body with
  | None -> []
  | Some (client_random, cookie) -> (
      t.client_random <- client_random;
      match t.phase with
      | Waiting_hello when t.cfg.require_cookie ->
          t.cookie <- Rng.hex t.rng 8;
          t.phase <- Waiting_verified_hello;
          [ emit_handshake t ~headroom W.Hello_verify_request t.cookie ]
      | Waiting_hello -> server_flight t ~headroom
      | Waiting_verified_hello ->
          if cookie = t.cookie then server_flight t ~headroom
          else [ emit_handshake t ~headroom W.Hello_verify_request t.cookie ]
      | Waiting_key_exchange | Waiting_ccs | Waiting_finished ->
          (* Retransmitted hello: repeat the flight with fresh message
             sequence numbers but the same server random. *)
          hello_flight t ~headroom
      | Established | Closed -> [])

let handle_key_exchange t body =
  match t.phase with
  | Waiting_key_exchange when String.length body > 4 && has_prefix "PMS:" body 0
    ->
      let premaster = String.sub body 4 (String.length body - 4) in
      C.derive_master t.crypto ~client_random:t.client_random
        ~server_random:t.server_random ~premaster;
      t.phase <- Waiting_ccs;
      []
  | _ -> []

let handle_finished t ~headroom body =
  match t.phase with
  | Waiting_finished ->
      if body = C.verify_data t.crypto C.Client_write then begin
        t.phase <- Established;
        let ccs = emit t ~headroom W.Change_cipher_spec "\x01" in
        t.write_epoch <- 1;
        t.write_seq <- 0;
        let fin =
          emit_handshake t ~headroom W.Finished
            (C.verify_data t.crypto C.Server_write)
        in
        [ ccs; fin ]
      end
      else fatal_alert t ~headroom 51 (* decrypt_error *)
  | _ -> []

let handle_record t ~headroom (r : W.record_) =
  match r.W.content with
  | W.Handshake -> (
      match W.decode_handshake r.W.payload with
      | Error _ -> []
      | Ok h -> (
          match h.W.msg_type with
          | W.Client_hello -> handle_client_hello t ~headroom h.W.body
          | W.Client_key_exchange -> handle_key_exchange t h.W.body
          | W.Finished -> handle_finished t ~headroom h.W.body
          | W.Server_hello | W.Hello_verify_request | W.Certificate
          | W.Server_hello_done ->
              (* Server-only messages from the client: ignored. *)
              []))
  | W.Change_cipher_spec -> (
      match t.phase with
      | Waiting_ccs ->
          t.read_epoch <- 1;
          t.phase <- Waiting_finished;
          []
      | Waiting_hello | Waiting_verified_hello | Waiting_key_exchange ->
          if t.cfg.strict_ccs then fatal_alert t ~headroom 10
            (* unexpected_message *)
          else []
      | Waiting_finished | Established | Closed -> [])
  | W.Application_data -> (
      match t.phase with
      | Established ->
          (* Echo service: the response is the uppercased request. *)
          [
            emit t ~headroom W.Application_data
              (String.uppercase_ascii r.W.payload);
          ]
      | _ -> [])
  | W.Alert -> (
      match t.phase with
      | Closed -> []
      | _ ->
          t.phase <- Closed;
          [ emit t ~headroom W.Alert "\x01\x00" (* warning, close_notify *) ])

let handle_at t ~headroom data off len =
  match W.decode_record_at ?keys:t.read_keys data off len with
  | Error _ -> []
  | Ok r ->
      (* Records must arrive in the current read epoch. *)
      if r.W.epoch <> t.read_epoch && r.W.epoch <> t.read_epoch + 1 then []
      else if r.W.epoch > t.read_epoch && r.W.content <> W.Change_cipher_spec
              && t.phase <> Waiting_finished && t.phase <> Established
      then []
      else handle_record t ~headroom r

let handle_datagram t data =
  List.map Bytes.unsafe_to_string
    (handle_at t ~headroom:0 data 0 (String.length data))
