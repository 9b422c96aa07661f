type symbol =
  | Initial_crypto
  | Initial_ack_hsd
  | Handshake_ack_crypto
  | Handshake_ack_hsd
  | Short_ack_flow
  | Short_ack_stream
  | Short_ack_hsd
  | Short_ack_ping
  | Short_ack_path_challenge
  | Short_ack_path_response

let all =
  [|
    Initial_crypto;
    Initial_ack_hsd;
    Handshake_ack_crypto;
    Handshake_ack_hsd;
    Short_ack_flow;
    Short_ack_stream;
    Short_ack_hsd;
  |]

let extended =
  Array.append all
    [| Short_ack_ping; Short_ack_path_challenge; Short_ack_path_response |]

let to_string = function
  | Initial_crypto -> "INITIAL(?,?)[CRYPTO]"
  | Initial_ack_hsd -> "INITIAL(?,?)[ACK,HANDSHAKE_DONE]"
  | Handshake_ack_crypto -> "HANDSHAKE(?,?)[ACK,CRYPTO]"
  | Handshake_ack_hsd -> "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]"
  | Short_ack_flow -> "SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]"
  | Short_ack_stream -> "SHORT(?,?)[ACK,STREAM]"
  | Short_ack_hsd -> "SHORT(?,?)[ACK,HANDSHAKE_DONE]"
  | Short_ack_ping -> "SHORT(?,?)[ACK,PING]"
  | Short_ack_path_challenge -> "SHORT(?,?)[ACK,PATH_CHALLENGE]"
  | Short_ack_path_response -> "SHORT(?,?)[ACK,PATH_RESPONSE]"

let pp fmt s = Format.pp_print_string fmt (to_string s)

type apacket = { ptype : Quic_packet.ptype; frames : Frame.kind list }
type output = apacket list

(* Outputs are rendered once per step on every string-level SUL, so
   each string is sized first and filled by blits into one buffer. *)
let blit s b pos =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* "PTYPE(?,?)[K1,K2]": the ptype, 7 fixed bytes, the kinds and a comma
   between each two. *)
let apacket_length a =
  let kinds =
    List.fold_left
      (fun n k -> n + 1 + String.length (Frame.kind_to_string k))
      0 a.frames
  in
  String.length (Quic_packet.ptype_to_string a.ptype) + 7 + max 0 (kinds - 1)

let blit_apacket a b pos =
  let pos = blit (Quic_packet.ptype_to_string a.ptype) b pos in
  let pos = blit "(?,?)[" b pos in
  let pos =
    match a.frames with
    | [] -> pos
    | k :: ks ->
        List.fold_left
          (fun pos k -> blit (Frame.kind_to_string k) b (blit "," b pos))
          (blit (Frame.kind_to_string k) b pos)
          ks
  in
  blit "]" b pos

let apacket_to_string a =
  let b = Bytes.create (apacket_length a) in
  ignore (blit_apacket a b 0);
  Bytes.unsafe_to_string b

(* "{P1, P2}": the packets, 2 bytes of separator or brace each. *)
let output_to_string = function
  | [] -> "NIL"
  | p :: ps as packets ->
      let b =
        Bytes.create
          (List.fold_left (fun n a -> n + 2 + apacket_length a) 0 packets)
      in
      let pos =
        List.fold_left
          (fun pos a -> blit_apacket a b (blit ", " b pos))
          (blit_apacket p b (blit "{" b 0))
          ps
      in
      ignore (blit "}" b pos);
      Bytes.unsafe_to_string b

let pp_output fmt o = Format.pp_print_string fmt (output_to_string o)

let abstract_packet (p : Quic_packet.t) =
  let frames =
    List.filter_map
      (fun f ->
        match Frame.kind f with Frame.K_padding -> None | k -> Some k)
      p.Quic_packet.frames
  in
  { ptype = p.Quic_packet.ptype; frames }

let abstract_reset = { ptype = Quic_packet.Stateless_reset; frames = [] }
