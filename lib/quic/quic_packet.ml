type ptype =
  | Initial
  | Zero_rtt
  | Handshake
  | Retry
  | Version_negotiation
  | Short
  | Stateless_reset

let ptype_to_string = function
  | Initial -> "INITIAL"
  | Zero_rtt -> "0RTT"
  | Handshake -> "HANDSHAKE"
  | Retry -> "RETRY"
  | Version_negotiation -> "VERSION_NEGOTIATION"
  | Short -> "SHORT"
  | Stateless_reset -> "STATELESS_RESET"

let all_ptypes =
  [ Initial; Zero_rtt; Handshake; Retry; Version_negotiation; Short; Stateless_reset ]

let cid_length = 8
let draft29 = 0xff00001d

type t = {
  ptype : ptype;
  version : int;
  dcid : string;
  scid : string;
  token : string;
  pn : int;
  frames : Frame.t list;
}

let pp fmt p =
  Format.fprintf fmt "%s(pn=%d)[%a]" (ptype_to_string p.ptype) p.pn
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       Frame.pp)
    p.frames

let make ?(version = draft29) ?(scid = "") ?(token = "") ?(pn = -1) ?(frames = [])
    ptype ~dcid =
  { ptype; version; dcid; scid; token; pn; frames }

(* the key level of a protected packet type *)
let protected_level = function
  | Initial -> Quic_crypto.Initial_level
  | Handshake -> Quic_crypto.Handshake_level
  | Zero_rtt | Short | Retry | Version_negotiation | Stateless_reset ->
      Quic_crypto.Application_level

let level = function
  | Retry | Version_negotiation | Stateless_reset -> None
  | ptype -> Some (protected_level ptype)

let long_type_bits = function
  | Initial -> 0
  | Zero_rtt -> 1
  | Handshake -> 2
  | Retry -> 3
  | Short | Version_negotiation | Stateless_reset -> invalid_arg "not a long type"

let set_u32 b off v =
  Bytes.set b off (Char.unsafe_chr ((v lsr 24) land 0xFF));
  Bytes.set b (off + 1) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 2) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 3) (Char.unsafe_chr (v land 0xFF));
  off + 4

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let set_string b off s =
  Bytes.blit_string s 0 b off (String.length s);
  off + String.length s

let set_cid b off cid =
  Bytes.set b off (Char.chr (String.length cid));
  set_string b (off + 1) cid

let retry_integrity_tag ~dcid ~scid ~token =
  (* one hash for the whole tag (the per-byte closure used to recompute
     it eight times) *)
  let h =
    Int64.to_int
      (Quic_crypto.hash64 (String.concat "|" [ "retry"; dcid; scid; token ]))
  in
  String.init 8 (fun i -> Char.unsafe_chr ((h lsr (8 * i)) land 0xFF))

(* Protected packets are sized first, then header and frames are
   written once into one buffer with room for the tag, which
   {!Quic_crypto.seal_in_place} then protects where they lie. *)
let protect ~crypto ~sender lvl p b ~header_len ~payload_len =
  ignore (Frame.write_all b header_len p.frames);
  if
    Quic_crypto.seal_in_place crypto lvl sender ~pn:p.pn b ~header_len
      ~payload_len
  then Some (Bytes.unsafe_to_string b)
  else None

let encode ~crypto ~sender p =
  let cids = 2 + String.length p.dcid + String.length p.scid in
  match p.ptype with
  | Version_negotiation ->
      let b = Bytes.create (1 + 4 + cids + 4) in
      Bytes.set b 0 '\x80';
      let off = set_u32 b 1 0 in
      let off = set_cid b (set_cid b off p.dcid) p.scid in
      ignore (set_u32 b off p.version);
      Some (Bytes.unsafe_to_string b)
  | Retry ->
      let b = Bytes.create (1 + 4 + cids + String.length p.token + 8) in
      Bytes.set b 0 (Char.chr (0x80 lor 0x40 lor (long_type_bits Retry lsl 4)));
      let off = set_u32 b 1 p.version in
      let off = set_cid b (set_cid b off p.dcid) p.scid in
      let off = set_string b off p.token in
      ignore
        (set_string b off
           (retry_integrity_tag ~dcid:p.dcid ~scid:p.scid ~token:p.token));
      Some (Bytes.unsafe_to_string b)
  | Stateless_reset -> invalid_arg "use encode_stateless_reset"
  | (Initial | Zero_rtt | Handshake) as ptype ->
      let token_field =
        match ptype with
        | Initial ->
            let n = String.length p.token in
            Varint.encoded_length n + n
        | _ -> 0
      in
      let payload_len = Frame.encoded_length_all p.frames in
      let length = 4 + payload_len + Quic_crypto.tag_length in
      let header_len =
        1 + 4 + cids + token_field + Varint.encoded_length length + 4
      in
      let b = Bytes.create (header_len + length - 4) in
      Bytes.set b 0
        (Char.chr (0x80 lor 0x40 lor (long_type_bits ptype lsl 4) lor 0x03));
      let off = set_u32 b 1 p.version in
      let off = set_cid b (set_cid b off p.dcid) p.scid in
      let off =
        match ptype with
        | Initial ->
            set_string b (Varint.write b off (String.length p.token)) p.token
        | _ -> off
      in
      ignore (set_u32 b (Varint.write b off length) p.pn);
      protect ~crypto ~sender (protected_level ptype) p b ~header_len
        ~payload_len
  | Short ->
      let payload_len = Frame.encoded_length_all p.frames in
      let header_len = 1 + String.length p.dcid + 4 in
      let b =
        Bytes.create (header_len + payload_len + Quic_crypto.tag_length)
      in
      let phase_bit =
        if Quic_crypto.application_phase crypto land 1 = 1 then 0x04 else 0
      in
      Bytes.set b 0 (Char.chr (0x40 lor phase_bit lor 0x03));
      (* fixed-length dcid, no prefix *)
      ignore (set_u32 b (set_string b 1 p.dcid) p.pn);
      protect ~crypto ~sender Quic_crypto.Application_level p b ~header_len
        ~payload_len

let encode_stateless_reset ~rand ~token =
  (* First byte mimics a short header; at least 22 unpredictable bytes
     precede the 16-byte token. *)
  let bits = rand 22 in
  let first = Char.chr (0x40 lor (Char.code bits.[0] land 0x3F)) in
  String.make 1 first ^ String.sub bits 1 (String.length bits - 1) ^ token

exception Bad of string

type decode_result =
  | Decoded of t
  | Reset_detected of string
  | Undecodable of string

(* [s] equals [data[off, off + String.length s)] *)
let equal_at data off s =
  let n = String.length s in
  off >= 0
  && n <= String.length data - off
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get data (off + !i) = String.unsafe_get s !i do
    incr i
  done;
  !i = n

let need data n off =
  if n > String.length data - off then raise (Bad "truncated")

let read_cid data off =
  need data 1 off;
  let n = Char.code data.[off] in
  need data n (off + 1);
  (String.sub data (off + 1) n, off + 1 + n)

let frames_of = function
  | None -> Error "decryption failed"
  | Some payload -> (
      match Frame.decode_all payload with
      | Error e -> Error ("bad frames: " ^ e)
      | Ok _ as frames -> frames)

(* A short-header datagram whose trailing 16 bytes are a known
   stateless-reset token. *)
let detect_reset data reset_tokens =
  let len = String.length data in
  if len >= 16 then
    List.find_opt (equal_at data (len - 16)) reset_tokens
    |> Option.map (fun token -> Reset_detected token)
  else None

(* Every field is read where it lies in [data]; only the values a
   decoded packet keeps (cids, token, plaintext) are copied out. *)
let decode ~crypto ~sender ~reset_tokens data =
  let len = String.length data in
  try
    if len = 0 then Undecodable "empty datagram"
    else begin
      let first = Char.code data.[0] in
      if first land 0x80 <> 0 then begin
        (* Long header. *)
        need data 5 0;
        let version = get_u32 data 1 in
        let dcid, off = read_cid data 5 in
        let scid, off = read_cid data off in
        if version = 0 then begin
          (* Version negotiation: list of supported versions. *)
          need data 4 off;
          let supported = get_u32 data off in
          Decoded
            (make Version_negotiation ~version:supported ~dcid ~scid)
        end
        else begin
          let ptype =
            match (first lsr 4) land 0x03 with
            | 0 -> Initial
            | 1 -> Zero_rtt
            | 2 -> Handshake
            | _ -> Retry
          in
          match ptype with
          | Retry ->
              if len - off < 8 then raise (Bad "retry too short");
              let token = String.sub data off (len - off - 8) in
              let tag = retry_integrity_tag ~dcid ~scid ~token in
              if equal_at data (len - 8) tag then
                Decoded (make Retry ~dcid ~scid ~token)
              else Undecodable "retry integrity check failed"
          | _ -> (
              let pos = ref off in
              let token =
                match ptype with
                | Initial ->
                    let n = Varint.read data pos in
                    need data n !pos;
                    let token = String.sub data !pos n in
                    pos := !pos + n;
                    token
                | _ -> ""
              in
              let length = Varint.read data pos in
              need data length !pos;
              need data 4 !pos;
              let pn = get_u32 data !pos in
              let header_len = !pos + 4 in
              if length < 4 then raise (Bad "packet length below 4");
              match
                frames_of
                  (Quic_crypto.open_at crypto (protected_level ptype) sender
                     ~pn data ~header_len ~sealed_len:(length - 4))
              with
              | Error e -> Undecodable e
              | Ok frames ->
                  Decoded { ptype; version; dcid; scid; token; pn; frames })
        end
      end
      else begin
        (* Short header (or stateless reset). *)
        let header_len = 1 + cid_length + 4 in
        if len < header_len + Quic_crypto.tag_length then
          match detect_reset data reset_tokens with
          | Some reset -> reset
          | None -> Undecodable "short packet too short"
        else begin
          let pn = get_u32 data (1 + cid_length) in
          let sealed_len = len - header_len in
          let phase_bit = (first lsr 2) land 1 in
          let our_phase = Quic_crypto.application_phase crypto land 1 in
          let payload =
            if phase_bit = our_phase then
              Quic_crypto.open_at crypto Quic_crypto.Application_level sender
                ~pn data ~header_len ~sealed_len
            else begin
              (* Peer-initiated key update (RFC 9001 §6): verify against
                 the next key generation and commit on success. *)
              match
                Quic_crypto.open_updated_application_at crypto sender ~pn data
                  ~header_len ~sealed_len
              with
              | Some _ as plaintext ->
                  Quic_crypto.update_application crypto;
                  plaintext
              | None -> None
            end
          in
          match payload with
          | None -> (
              match detect_reset data reset_tokens with
              | Some reset -> reset
              | None -> Undecodable "decryption failed")
          | Some _ -> (
              match frames_of payload with
              | Error e -> Undecodable e
              | Ok frames ->
                  let dcid = String.sub data 1 cid_length in
                  Decoded (make Short ~dcid ~pn ~frames))
        end
      end
    end
  with
  | Bad msg -> Undecodable msg
  | Invalid_argument msg -> Undecodable msg
