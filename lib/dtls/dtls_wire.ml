type content_type =
  | Change_cipher_spec
  | Alert
  | Handshake
  | Application_data

let content_type_to_string = function
  | Change_cipher_spec -> "CCS"
  | Alert -> "ALERT"
  | Handshake -> "HANDSHAKE"
  | Application_data -> "APPDATA"

let content_type_byte = function
  | Change_cipher_spec -> 20
  | Alert -> 21
  | Handshake -> 22
  | Application_data -> 23

let content_type_of_byte = function
  | 20 -> Some Change_cipher_spec
  | 21 -> Some Alert
  | 22 -> Some Handshake
  | 23 -> Some Application_data
  | _ -> None

type handshake_type =
  | Client_hello
  | Server_hello
  | Hello_verify_request
  | Certificate
  | Server_hello_done
  | Client_key_exchange
  | Finished

let handshake_type_to_string = function
  | Client_hello -> "CLIENT_HELLO"
  | Server_hello -> "SERVER_HELLO"
  | Hello_verify_request -> "HELLO_VERIFY_REQUEST"
  | Certificate -> "CERTIFICATE"
  | Server_hello_done -> "SERVER_HELLO_DONE"
  | Client_key_exchange -> "CLIENT_KEY_EXCHANGE"
  | Finished -> "FINISHED"

let handshake_type_byte = function
  | Client_hello -> 1
  | Server_hello -> 2
  | Hello_verify_request -> 3
  | Certificate -> 11
  | Server_hello_done -> 14
  | Client_key_exchange -> 16
  | Finished -> 20

let handshake_type_of_byte = function
  | 1 -> Some Client_hello
  | 2 -> Some Server_hello
  | 3 -> Some Hello_verify_request
  | 11 -> Some Certificate
  | 14 -> Some Server_hello_done
  | 16 -> Some Client_key_exchange
  | 20 -> Some Finished
  | _ -> None

type handshake = {
  msg_type : handshake_type;
  message_seq : int;
  body : string;
}

module C = Dtls_crypto

let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xFFFF)

let set_u24 b off v =
  Bytes.set b off (Char.unsafe_chr ((v lsr 16) land 0xFF));
  set_u16 b (off + 1) v

let set_u48 b off v =
  set_u16 b off (v lsr 32);
  set_u16 b (off + 2) (v lsr 16);
  set_u16 b (off + 4) v

let get_u16 s off = String.get_uint16_be s off
let get_u24 s off = (Char.code s.[off] lsl 16) lor get_u16 s (off + 1)
let get_u48 s off = (get_u16 s off lsl 32) lor (get_u16 s (off + 2) lsl 16) lor get_u16 s (off + 4)
let sub s off len = if len = 0 then "" else String.sub s off len

(* DTLS handshake header: type(1) length(3) message_seq(2)
   fragment_offset(3) fragment_length(3); fragments are whole. *)
let handshake_header_len = 12

let handshake_length h =
  let n = String.length h.body in
  if n > 0xFFFFFF then
    invalid_arg "Dtls_wire.encode_handshake: body exceeds the 24-bit length";
  handshake_header_len + n

(* [h] at [off] in [b], sized by [handshake_length]. *)
let write_handshake h b off =
  let n = String.length h.body in
  Bytes.set b off (Char.unsafe_chr (handshake_type_byte h.msg_type));
  set_u24 b (off + 1) n;
  set_u16 b (off + 4) h.message_seq;
  set_u24 b (off + 6) 0;
  set_u24 b (off + 9) n;
  Bytes.blit_string h.body 0 b (off + handshake_header_len) n

let encode_handshake h =
  let b = Bytes.create (handshake_length h) in
  write_handshake h b 0;
  Bytes.unsafe_to_string b

let decode_handshake s =
  let len = String.length s in
  if len < handshake_header_len then Error "handshake message too short"
  else begin
    match handshake_type_of_byte (Char.code s.[0]) with
    | None -> Error "unknown handshake type"
    | Some msg_type ->
        let length = get_u24 s 1 in
        let message_seq = get_u16 s 4 in
        let frag_offset = get_u24 s 6 in
        let frag_length = get_u24 s 9 in
        if frag_offset <> 0 || frag_length <> length then
          Error "fragmented handshake messages unsupported"
        else if len < handshake_header_len + length then
          Error "truncated handshake body"
        else
          Ok { msg_type; message_seq; body = sub s handshake_header_len length }
  end

type record_ = {
  content : content_type;
  epoch : int;
  seq : int;
  payload : string;
}

let pp_record fmt r =
  Format.fprintf fmt "%s(epoch=%d,seq=%d,len=%d)"
    (content_type_to_string r.content)
    r.epoch r.seq
    (String.length r.payload)

let dtls_version = 0xFEFD (* DTLS 1.2 *)

(* Record header: type(1) version(2) epoch(2) seq(6) length(2). *)
let record_header_len = 13

(* Whether a record of [epoch] goes out sealed: from epoch 1, once the
   sender has keys; a sender without keys sends plaintext. *)
let sealed ?keys epoch =
  match keys with
  | Some (crypto, _) -> epoch >= 1 && C.ready crypto
  | None -> false

(* One buffer: [headroom] free bytes, the header, room for a plaintext
   of [plain_len] bytes, which the caller writes at [headroom +
   record_header_len], and for the tag. *)
let record_buffer ?keys ~headroom content ~epoch ~seq plain_len =
  let length = plain_len + if sealed ?keys epoch then C.tag_length else 0 in
  if length > 0xFFFF then
    invalid_arg "Dtls_wire.encode_record: payload exceeds the 16-bit length";
  let b = Bytes.create (headroom + record_header_len + length) in
  Bytes.set b headroom (Char.unsafe_chr (content_type_byte content));
  set_u16 b (headroom + 1) dtls_version;
  set_u16 b (headroom + 3) epoch;
  set_u48 b (headroom + 5) seq;
  set_u16 b (headroom + 11) length;
  b

(* Seals the plaintext where it lies, when [record_buffer] made room
   for the tag. *)
let seal_record ?keys ~headroom ~epoch ~seq b plain_len =
  match keys with
  | Some (crypto, direction) when sealed ?keys epoch ->
      ignore
        (C.seal_in_place crypto direction ~epoch ~seq b
           (headroom + record_header_len)
           plain_len)
  | Some _ | None -> ()

let write_record ?keys ~headroom r =
  let n = String.length r.payload in
  let { epoch; seq; _ } = r in
  let b = record_buffer ?keys ~headroom r.content ~epoch ~seq n in
  Bytes.blit_string r.payload 0 b (headroom + record_header_len) n;
  seal_record ?keys ~headroom ~epoch ~seq b n;
  b

let write_handshake_record ?keys ~headroom ~epoch ~seq h =
  let n = handshake_length h in
  let b = record_buffer ?keys ~headroom Handshake ~epoch ~seq n in
  write_handshake h b (headroom + record_header_len);
  seal_record ?keys ~headroom ~epoch ~seq b n;
  b

let encode_record ?keys r =
  Bytes.unsafe_to_string (write_record ?keys ~headroom:0 r)

let decode_record_at ?keys s off len =
  if len < record_header_len then Error "record too short"
  else begin
    match content_type_of_byte (Char.code s.[off]) with
    | None -> Error "unknown content type"
    | Some content ->
        if get_u16 s (off + 1) <> dtls_version then Error "unsupported version"
        else begin
          let epoch = get_u16 s (off + 3) in
          let seq = get_u48 s (off + 5) in
          let length = get_u16 s (off + 11) in
          if len < record_header_len + length then Error "truncated record"
          else begin
            let at = off + record_header_len in
            let payload =
              match keys with
              | Some (crypto, direction) when epoch >= 1 ->
                  C.open_at crypto direction ~epoch ~seq s at length
              | Some _ | None -> Some (sub s at length)
            in
            match payload with
            | Some payload -> Ok { content; epoch; seq; payload }
            | None -> Error "record protection failure"
          end
        end
  end

let decode_record ?keys s = decode_record_at ?keys s 0 (String.length s)
