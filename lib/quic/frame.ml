type t =
  | Padding of int
  | Ping
  | Ack of { largest : int; delay : int; first_range : int }
  | Reset_stream of { stream_id : int; error : int; final_size : int }
  | Stop_sending of { stream_id : int; error : int }
  | Crypto of { offset : int; data : string }
  | New_token of string
  | Stream of { id : int; offset : int; data : string; fin : bool }
  | Max_data of int
  | Max_stream_data of { stream_id : int; max : int }
  | Max_streams of { bidi : bool; max : int }
  | Data_blocked of int
  | Stream_data_blocked of { stream_id : int; max : int }
  | Streams_blocked of { bidi : bool; max : int }
  | New_connection_id of {
      seq : int;
      retire_prior : int;
      cid : string;
      reset_token : string;
    }
  | Retire_connection_id of int
  | Path_challenge of string
  | Path_response of string
  | Connection_close of { error : int; frame_type : int; reason : string; app : bool }
  | Handshake_done

type kind =
  | K_padding
  | K_ping
  | K_ack
  | K_reset_stream
  | K_stop_sending
  | K_crypto
  | K_new_token
  | K_stream
  | K_max_data
  | K_max_stream_data
  | K_max_streams
  | K_data_blocked
  | K_stream_data_blocked
  | K_streams_blocked
  | K_new_connection_id
  | K_retire_connection_id
  | K_path_challenge
  | K_path_response
  | K_connection_close
  | K_handshake_done

let kind = function
  | Padding _ -> K_padding
  | Ping -> K_ping
  | Ack _ -> K_ack
  | Reset_stream _ -> K_reset_stream
  | Stop_sending _ -> K_stop_sending
  | Crypto _ -> K_crypto
  | New_token _ -> K_new_token
  | Stream _ -> K_stream
  | Max_data _ -> K_max_data
  | Max_stream_data _ -> K_max_stream_data
  | Max_streams _ -> K_max_streams
  | Data_blocked _ -> K_data_blocked
  | Stream_data_blocked _ -> K_stream_data_blocked
  | Streams_blocked _ -> K_streams_blocked
  | New_connection_id _ -> K_new_connection_id
  | Retire_connection_id _ -> K_retire_connection_id
  | Path_challenge _ -> K_path_challenge
  | Path_response _ -> K_path_response
  | Connection_close _ -> K_connection_close
  | Handshake_done -> K_handshake_done

let kind_to_string = function
  | K_padding -> "PADDING"
  | K_ping -> "PING"
  | K_ack -> "ACK"
  | K_reset_stream -> "RESET_STREAM"
  | K_stop_sending -> "STOP_SENDING"
  | K_crypto -> "CRYPTO"
  | K_new_token -> "NEW_TOKEN"
  | K_stream -> "STREAM"
  | K_max_data -> "MAX_DATA"
  | K_max_stream_data -> "MAX_STREAM_DATA"
  | K_max_streams -> "MAX_STREAMS"
  | K_data_blocked -> "DATA_BLOCKED"
  | K_stream_data_blocked -> "STREAM_DATA_BLOCKED"
  | K_streams_blocked -> "STREAMS_BLOCKED"
  | K_new_connection_id -> "NEW_CONNECTION_ID"
  | K_retire_connection_id -> "RETIRE_CONNECTION_ID"
  | K_path_challenge -> "PATH_CHALLENGE"
  | K_path_response -> "PATH_RESPONSE"
  | K_connection_close -> "CONNECTION_CLOSE"
  | K_handshake_done -> "HANDSHAKE_DONE"

let all_kinds =
  [
    K_padding;
    K_ping;
    K_ack;
    K_reset_stream;
    K_stop_sending;
    K_crypto;
    K_new_token;
    K_stream;
    K_max_data;
    K_max_stream_data;
    K_max_streams;
    K_data_blocked;
    K_stream_data_blocked;
    K_streams_blocked;
    K_new_connection_id;
    K_retire_connection_id;
    K_path_challenge;
    K_path_response;
    K_connection_close;
    K_handshake_done;
  ]

let pp fmt f =
  match f with
  | Padding n -> Format.fprintf fmt "PADDING(%d)" n
  | Ping -> Format.fprintf fmt "PING"
  | Ack { largest; _ } -> Format.fprintf fmt "ACK(largest=%d)" largest
  | Reset_stream { stream_id; _ } -> Format.fprintf fmt "RESET_STREAM(%d)" stream_id
  | Stop_sending { stream_id; _ } -> Format.fprintf fmt "STOP_SENDING(%d)" stream_id
  | Crypto { offset; data } ->
      Format.fprintf fmt "CRYPTO(off=%d,len=%d)" offset (String.length data)
  | New_token _ -> Format.fprintf fmt "NEW_TOKEN"
  | Stream { id; offset; data; fin } ->
      Format.fprintf fmt "STREAM(%d,off=%d,len=%d%s)" id offset (String.length data)
        (if fin then ",fin" else "")
  | Max_data v -> Format.fprintf fmt "MAX_DATA(%d)" v
  | Max_stream_data { stream_id; max } ->
      Format.fprintf fmt "MAX_STREAM_DATA(%d,%d)" stream_id max
  | Max_streams { max; _ } -> Format.fprintf fmt "MAX_STREAMS(%d)" max
  | Data_blocked v -> Format.fprintf fmt "DATA_BLOCKED(%d)" v
  | Stream_data_blocked { stream_id; max } ->
      Format.fprintf fmt "STREAM_DATA_BLOCKED(%d,%d)" stream_id max
  | Streams_blocked { max; _ } -> Format.fprintf fmt "STREAMS_BLOCKED(%d)" max
  | New_connection_id { seq; _ } -> Format.fprintf fmt "NEW_CONNECTION_ID(seq=%d)" seq
  | Retire_connection_id seq -> Format.fprintf fmt "RETIRE_CONNECTION_ID(%d)" seq
  | Path_challenge _ -> Format.fprintf fmt "PATH_CHALLENGE"
  | Path_response _ -> Format.fprintf fmt "PATH_RESPONSE"
  | Connection_close { error; _ } -> Format.fprintf fmt "CONNECTION_CLOSE(%d)" error
  | Handshake_done -> Format.fprintf fmt "HANDSHAKE_DONE"

let is_ack_eliciting f =
  match kind f with
  | K_ack | K_padding | K_connection_close -> false
  | _ -> true

let vlen = Varint.encoded_length
let bytes_length s = vlen (String.length s) + String.length s

let encoded_length f =
  match f with
  | Padding n -> max n 1
  | Ping | Handshake_done -> 1
  | Ack { largest; delay; first_range } ->
      1 + vlen largest + vlen delay + 1 + vlen first_range
  | Reset_stream { stream_id; error; final_size } ->
      1 + vlen stream_id + vlen error + vlen final_size
  | Stop_sending { stream_id; error } -> 1 + vlen stream_id + vlen error
  | Crypto { offset; data } -> 1 + vlen offset + bytes_length data
  | New_token token -> 1 + bytes_length token
  | Stream { id; offset; data; _ } ->
      1 + vlen id + vlen offset + bytes_length data
  | Max_data v | Data_blocked v | Retire_connection_id v -> 1 + vlen v
  | Max_stream_data { stream_id; max }
  | Stream_data_blocked { stream_id; max } ->
      1 + vlen stream_id + vlen max
  | Max_streams { max; _ } | Streams_blocked { max; _ } -> 1 + vlen max
  | New_connection_id { seq; retire_prior; cid; reset_token } ->
      1 + vlen seq + vlen retire_prior + 1 + String.length cid
      + String.length reset_token
  | Path_challenge data | Path_response data -> 1 + String.length data
  | Connection_close { error; frame_type; reason; app } ->
      1 + vlen error
      + (if app then 0 else vlen frame_type)
      + bytes_length reason

let write_string b off s =
  Bytes.blit_string s 0 b off (String.length s);
  off + String.length s

let write_bytes b off s =
  write_string b (Varint.write b off (String.length s)) s

(* Frame types below 0x40 are one-byte varints. *)
let write_type b off ft =
  Bytes.set b off (Char.unsafe_chr ft);
  off + 1

let write b off f =
  match f with
  | Padding n ->
      let n = max n 1 in
      Bytes.fill b off n '\x00';
      off + n
  | Ping -> write_type b off 0x01
  | Ack { largest; delay; first_range } ->
      let off = Varint.write b (write_type b off 0x02) largest in
      let off = Varint.write b off delay in
      let off = Varint.write b off 0 (* range count *) in
      Varint.write b off first_range
  | Reset_stream { stream_id; error; final_size } ->
      let off = Varint.write b (write_type b off 0x04) stream_id in
      let off = Varint.write b off error in
      Varint.write b off final_size
  | Stop_sending { stream_id; error } ->
      Varint.write b (Varint.write b (write_type b off 0x05) stream_id) error
  | Crypto { offset; data } ->
      write_bytes b (Varint.write b (write_type b off 0x06) offset) data
  | New_token token -> write_bytes b (write_type b off 0x07) token
  | Stream { id; offset; data; fin } ->
      (* 0x08 base; OFF=0x04, LEN=0x02, FIN=0x01 — always explicit. *)
      let off =
        write_type b off (0x08 lor 0x04 lor 0x02 lor if fin then 0x01 else 0)
      in
      write_bytes b (Varint.write b (Varint.write b off id) offset) data
  | Max_data v -> Varint.write b (write_type b off 0x10) v
  | Max_stream_data { stream_id; max } ->
      Varint.write b (Varint.write b (write_type b off 0x11) stream_id) max
  | Max_streams { bidi; max } ->
      Varint.write b (write_type b off (if bidi then 0x12 else 0x13)) max
  | Data_blocked v -> Varint.write b (write_type b off 0x14) v
  | Stream_data_blocked { stream_id; max } ->
      Varint.write b (Varint.write b (write_type b off 0x15) stream_id) max
  | Streams_blocked { bidi; max } ->
      Varint.write b (write_type b off (if bidi then 0x16 else 0x17)) max
  | New_connection_id { seq; retire_prior; cid; reset_token } ->
      let off = Varint.write b (write_type b off 0x18) seq in
      let off = Varint.write b off retire_prior in
      Bytes.set b off (Char.chr (String.length cid));
      let off = write_string b (off + 1) cid in
      write_string b off reset_token (* fixed 16 bytes *)
  | Retire_connection_id seq -> Varint.write b (write_type b off 0x19) seq
  | Path_challenge data ->
      write_string b (write_type b off 0x1A) data (* fixed 8 bytes *)
  | Path_response data -> write_string b (write_type b off 0x1B) data
  | Connection_close { error; frame_type; reason; app } ->
      let off = write_type b off (if app then 0x1D else 0x1C) in
      let off = Varint.write b off error in
      let off = if app then off else Varint.write b off frame_type in
      write_bytes b off reason
  | Handshake_done -> write_type b off 0x1E

let rec encoded_length_all = function
  | [] -> 0
  | f :: rest -> encoded_length f + encoded_length_all rest

let rec write_all b off = function
  | [] -> off
  | f :: rest -> write_all b (write b off f) rest

let encode_all frames =
  let b = Bytes.create (encoded_length_all frames) in
  ignore (write_all b 0 frames);
  Bytes.unsafe_to_string b

exception Malformed of string

(* The decoder reads through a cursor [pos] into [payload]. *)
let fixed payload pos n =
  if n > String.length payload - !pos then
    raise (Malformed "truncated fixed field")
  else begin
    let s = String.sub payload !pos n in
    pos := !pos + n;
    s
  end

let bytes payload pos = fixed payload pos (Varint.read payload pos)

let decode_frame payload pos =
  let len = String.length payload in
  let start = !pos in
  match Varint.read payload pos with
  | 0x00 ->
      (* Coalesce a run of padding. *)
      while !pos < len && String.unsafe_get payload !pos = '\x00' do
        incr pos
      done;
      Padding (!pos - start)
  | 0x01 -> Ping
  | 0x02 | 0x03 ->
      let largest = Varint.read payload pos in
      let delay = Varint.read payload pos in
      if Varint.read payload pos <> 0 then
        raise (Malformed "multi-range ACK unsupported");
      let first_range = Varint.read payload pos in
      Ack { largest; delay; first_range }
  | 0x04 ->
      let stream_id = Varint.read payload pos in
      let error = Varint.read payload pos in
      let final_size = Varint.read payload pos in
      Reset_stream { stream_id; error; final_size }
  | 0x05 ->
      let stream_id = Varint.read payload pos in
      let error = Varint.read payload pos in
      Stop_sending { stream_id; error }
  | 0x06 ->
      let offset = Varint.read payload pos in
      let data = bytes payload pos in
      Crypto { offset; data }
  | 0x07 -> New_token (bytes payload pos)
  | ft when ft >= 0x08 && ft <= 0x0F ->
      let id = Varint.read payload pos in
      let offset = if ft land 0x04 <> 0 then Varint.read payload pos else 0 in
      let data =
        if ft land 0x02 <> 0 then bytes payload pos
        else fixed payload pos (len - !pos)
      in
      Stream { id; offset; data; fin = ft land 0x01 <> 0 }
  | 0x10 -> Max_data (Varint.read payload pos)
  | 0x11 ->
      let stream_id = Varint.read payload pos in
      let max = Varint.read payload pos in
      Max_stream_data { stream_id; max }
  | (0x12 | 0x13) as ft ->
      Max_streams { bidi = ft = 0x12; max = Varint.read payload pos }
  | 0x14 -> Data_blocked (Varint.read payload pos)
  | 0x15 ->
      let stream_id = Varint.read payload pos in
      let max = Varint.read payload pos in
      Stream_data_blocked { stream_id; max }
  | (0x16 | 0x17) as ft ->
      Streams_blocked { bidi = ft = 0x16; max = Varint.read payload pos }
  | 0x18 ->
      let seq = Varint.read payload pos in
      let retire_prior = Varint.read payload pos in
      if !pos >= len then raise (Malformed "truncated NCID");
      let cid_len = Char.code payload.[!pos] in
      incr pos;
      let cid = fixed payload pos cid_len in
      let reset_token = fixed payload pos 16 in
      New_connection_id { seq; retire_prior; cid; reset_token }
  | 0x19 -> Retire_connection_id (Varint.read payload pos)
  | 0x1A -> Path_challenge (fixed payload pos 8)
  | 0x1B -> Path_response (fixed payload pos 8)
  | (0x1C | 0x1D) as ft ->
      let app = ft = 0x1D in
      let error = Varint.read payload pos in
      let frame_type = if app then 0 else Varint.read payload pos in
      let reason = bytes payload pos in
      Connection_close { error; frame_type; reason; app }
  | 0x1E -> Handshake_done
  | ft -> raise (Malformed (Printf.sprintf "unknown frame type 0x%x" ft))

(* the frames from [!pos] to the end, in order *)
let rec decode_from payload pos =
  if !pos >= String.length payload then []
  else
    let frame = decode_frame payload pos in
    frame :: decode_from payload pos

let decode_all payload =
  match decode_from payload (ref 0) with
  | frames -> Ok frames
  | exception Malformed msg -> Error msg
  | exception Invalid_argument msg -> Error msg
