module Rng = Prognosis_sul.Rng
module W = Dtls_wire
module C = Dtls_crypto

type t = {
  rng : Rng.t;
  crypto : C.t;
  write_keys : (C.t * C.direction) option;  (** [Some (crypto, Client_write)] *)
  read_keys : (C.t * C.direction) option;  (** [Some (crypto, Server_write)] *)
  mutable client_random : string;
  mutable premaster : string;
  mutable cookie : string;
  mutable server_random : string;
  mutable write_epoch : int;
  mutable write_seq : int;
  mutable read_epoch : int;
  mutable message_seq : int;
  mutable server_finished : bool;
  mutable closed_ : bool;
  mutable echoed_ : string;
}

let reset t =
  C.reset t.crypto;
  t.client_random <- Rng.hex t.rng 8;
  t.premaster <- Rng.hex t.rng 8;
  t.cookie <- "";
  t.server_random <- "";
  t.write_epoch <- 0;
  t.write_seq <- 0;
  t.read_epoch <- 0;
  t.message_seq <- 0;
  t.server_finished <- false;
  t.closed_ <- false;
  t.echoed_ <- ""

let create rng =
  let crypto = C.create () in
  let t =
    {
      rng;
      crypto;
      write_keys = Some (crypto, C.Client_write);
      read_keys = Some (crypto, C.Server_write);
      client_random = "";
      premaster = "";
      cookie = "";
      server_random = "";
      write_epoch = 0;
      write_seq = 0;
      read_epoch = 0;
      message_seq = 0;
      server_finished = false;
      closed_ = false;
      echoed_ = "";
    }
  in
  reset t;
  t

let handshake_complete t = t.server_finished
let closed t = t.closed_
let echoed t = t.echoed_

(* The record written once after [headroom] bytes and sealed in place
   from epoch 1 on, and the record itself (its plaintext payload) for
   the concrete trace. *)
let emit t ~headroom content payload =
  let seq = t.write_seq in
  t.write_seq <- seq + 1;
  let record = { W.content; epoch = t.write_epoch; seq; payload } in
  Some (W.write_record ?keys:t.write_keys ~headroom record, record)

let emit_handshake t ~headroom msg_type body =
  let message_seq = t.message_seq in
  t.message_seq <- message_seq + 1;
  emit t ~headroom W.Handshake
    (W.encode_handshake { W.msg_type; message_seq; body })

let concretize_into t ~headroom symbol =
  match symbol with
  | Dtls_alphabet.Client_hello ->
      emit_handshake t ~headroom W.Client_hello
        (String.concat "" [ "CR:"; t.client_random; ";COOKIE:"; t.cookie ])
  | Dtls_alphabet.Client_key_exchange ->
      (* Key derivation happens at send time with whatever server
         random is known — the reference implementation's state rules. *)
      C.derive_master t.crypto ~client_random:t.client_random
        ~server_random:t.server_random ~premaster:t.premaster;
      emit_handshake t ~headroom W.Client_key_exchange ("PMS:" ^ t.premaster)
  | Dtls_alphabet.Change_cipher_spec ->
      let result = emit t ~headroom W.Change_cipher_spec "\x01" in
      t.write_epoch <- 1;
      t.write_seq <- 0;
      result
  | Dtls_alphabet.Finished ->
      if (not (C.ready t.crypto)) || t.write_epoch < 1 then None
      else
        emit_handshake t ~headroom W.Finished
          (C.verify_data t.crypto C.Client_write)
  | Dtls_alphabet.App_data ->
      if (not (C.ready t.crypto)) || t.write_epoch < 1 then None
      else emit t ~headroom W.Application_data "ping"
  | Dtls_alphabet.Alert_close -> emit t ~headroom W.Alert "\x01\x00"

let concretize t symbol =
  Option.map
    (fun (b, record) -> (Bytes.unsafe_to_string b, record))
    (concretize_into t ~headroom:0 symbol)

(* Each handshake message is decoded once, for the state update and
   the abstraction both. *)
let absorb_at t data off len =
  match W.decode_record_at ?keys:t.read_keys data off len with
  | Error _ -> None
  | Ok r ->
      let handshake =
        match r.W.content with
        | W.Handshake -> (
            match W.decode_handshake r.W.payload with
            | Error _ -> None
            | Ok h ->
                (match h.W.msg_type with
                | W.Hello_verify_request -> t.cookie <- h.W.body
                | W.Server_hello ->
                    let body = h.W.body in
                    let n = String.length body in
                    if n > 3 && String.sub body 0 3 = "SR:" then
                      t.server_random <- String.sub body 3 (n - 3)
                | W.Finished -> t.server_finished <- true
                | W.Certificate | W.Server_hello_done | W.Client_hello
                | W.Client_key_exchange ->
                    ());
                Some h)
        | W.Change_cipher_spec ->
            t.read_epoch <- 1;
            None
        | W.Application_data ->
            t.echoed_ <- t.echoed_ ^ r.W.payload;
            None
        | W.Alert ->
            t.closed_ <- true;
            None
      in
      Some (r, Dtls_alphabet.abstract_record r handshake)

let absorb t data =
  Option.map fst (absorb_at t data 0 (String.length data))
