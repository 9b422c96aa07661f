type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  urg : bool;
}

let no_flags =
  { syn = false; ack = false; fin = false; rst = false; psh = false; urg = false }

let flags_to_string f =
  let b = Buffer.create 6 in
  if f.syn then Buffer.add_char b 'S';
  if f.ack then Buffer.add_char b 'A';
  if f.fin then Buffer.add_char b 'F';
  if f.rst then Buffer.add_char b 'R';
  if f.psh then Buffer.add_char b 'P';
  if f.urg then Buffer.add_char b 'U';
  Buffer.contents b

let flags_of_string s =
  String.fold_left
    (fun f c ->
      match c with
      | 'S' -> { f with syn = true }
      | 'A' -> { f with ack = true }
      | 'F' -> { f with fin = true }
      | 'R' -> { f with rst = true }
      | 'P' -> { f with psh = true }
      | 'U' -> { f with urg = true }
      | _ -> invalid_arg "Tcp_wire.flags_of_string: unknown flag character")
    no_flags s

type option_ =
  | Mss of int
  | Window_scale of int
  | Sack_permitted
  | Timestamps of { value : int; echo : int }

let option_to_string = function
  | Mss v -> Printf.sprintf "MSS(%d)" v
  | Window_scale v -> Printf.sprintf "WS(%d)" v
  | Sack_permitted -> "SACK_OK"
  | Timestamps { value; echo } -> Printf.sprintf "TS(%d,%d)" value echo

type segment = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  flags : flags;
  window : int;
  urgent : int;
  options : option_ list;
  payload : string;
}

let mask32 = 0xFFFFFFFF
let seq_add a b = (a + b) land mask32

let make ?(window = 65535) ?(urgent = 0) ?(options = []) ?(payload = "")
    ~src_port ~dst_port ~seq ~ack flags =
  {
    src_port;
    dst_port;
    seq = seq land mask32;
    ack = ack land mask32;
    flags;
    window;
    urgent;
    options;
    payload;
  }

let find_mss seg =
  List.fold_left
    (fun acc opt -> match opt with Mss v -> Some v | _ -> acc)
    None seg.options

let pp fmt s =
  Format.fprintf fmt "TCP{%d->%d %s seq=%d ack=%d len=%d}" s.src_port s.dst_port
    (flags_to_string s.flags) s.seq s.ack (String.length s.payload)

let to_json s =
  String.concat "\n"
    [
      "{ \"isNull\": false,";
      Printf.sprintf "  \"sourcePort\": %d," s.src_port;
      Printf.sprintf "  \"destinationPort\": %d," s.dst_port;
      Printf.sprintf "  \"seqNumber\": %d," s.seq;
      Printf.sprintf "  \"ackNumber\": %d," s.ack;
      "  \"dataOffset\": null,";
      "  \"reserved\": 0,";
      Printf.sprintf "  \"flags\": %S," (flags_to_string s.flags);
      Printf.sprintf "  \"window\": %d," s.window;
      "  \"checksum\": null,";
      Printf.sprintf "  \"urgentPointer\": %d }" s.urgent;
    ]

module Inet = Prognosis_sul.Inet

let header_len = 20

let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xFFFF)

let set_u32 b off v =
  set_u16 b off ((v lsr 16) land 0xFFFF);
  set_u16 b (off + 2) (v land 0xFFFF)

let get_u16 s off = String.get_uint16_be s off
let get_u32 s off = (get_u16 s off lsl 16) lor get_u16 s (off + 2)

let flag_bits f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)
  lor if f.urg then 0x20 else 0

(* The 64 flag records, shared by every decoded segment. *)
let flags_of_bits =
  let table =
    Array.init 64 (fun bits ->
        {
          fin = bits land 0x01 <> 0;
          syn = bits land 0x02 <> 0;
          rst = bits land 0x04 <> 0;
          psh = bits land 0x08 <> 0;
          ack = bits land 0x10 <> 0;
          urg = bits land 0x20 <> 0;
        })
  in
  fun bits -> Array.unsafe_get table (bits land 0x3F)

let option_length = function
  | Mss _ -> 4
  | Window_scale _ -> 3
  | Sack_permitted -> 2
  | Timestamps _ -> 10

(* The options region, NOP-padded to a 32-bit boundary. *)
let options_length options =
  let n = List.fold_left (fun n opt -> n + option_length opt) 0 options in
  (n + 3) land lnot 3

let write_option b off = function
  | Mss v ->
      Bytes.set b off '\x02';
      Bytes.set b (off + 1) '\x04';
      set_u16 b (off + 2) v
  | Window_scale v ->
      Bytes.set b off '\x03';
      Bytes.set b (off + 1) '\x03';
      Bytes.set b (off + 2) (Char.unsafe_chr (v land 0xFF))
  | Sack_permitted ->
      Bytes.set b off '\x04';
      Bytes.set b (off + 1) '\x02'
  | Timestamps { value; echo } ->
      Bytes.set b off '\x08';
      Bytes.set b (off + 1) '\x0A';
      set_u32 b (off + 2) value;
      set_u32 b (off + 6) echo

let encoded_length s =
  header_len + options_length s.options + String.length s.payload

(* The segment at [off] in [b], written once: header, options, padding
   and payload, then the checksum summed over them where they lie. The
   checksum covers the segment alone (no RFC 793 pseudo-header). *)
let write s b off =
  let options = options_length s.options in
  let offset_words = 5 + (options / 4) in
  if offset_words > 15 then invalid_arg "Tcp_wire.encode: options too long";
  let payload = String.length s.payload in
  set_u16 b off s.src_port;
  set_u16 b (off + 2) s.dst_port;
  set_u32 b (off + 4) s.seq;
  set_u32 b (off + 8) s.ack;
  Bytes.set b (off + 12) (Char.unsafe_chr (offset_words lsl 4));
  Bytes.set b (off + 13) (Char.unsafe_chr (flag_bits s.flags));
  set_u16 b (off + 14) s.window;
  set_u16 b (off + 16) 0;
  set_u16 b (off + 18) s.urgent;
  let opt_off = off + header_len in
  let stop =
    List.fold_left
      (fun o opt ->
        write_option b o opt;
        o + option_length opt)
      opt_off s.options
  in
  Bytes.fill b stop (opt_off + options - stop) '\x01';
  Bytes.blit_string s.payload 0 b (opt_off + options) payload;
  let total = header_len + options + payload in
  set_u16 b (off + 16) (Inet.finish (Inet.sum 0 b off total))

let encode s =
  let b = Bytes.create (encoded_length s) in
  write s b 0;
  Bytes.unsafe_to_string b

let to_ipv4 ~src ~dst s =
  let b = Bytes.create (Inet.tcp_headroom + encoded_length s) in
  write s b Inet.tcp_headroom;
  Inet.frame_tcp ~src ~dst b

(* The options in [data[off, stop)], read where they lie. *)
let decode_options data off stop =
  let rec loop off acc =
    if off >= stop then Ok (List.rev acc)
    else
      match Char.code data.[off] with
      | 0 -> Ok (List.rev acc) (* end of options *)
      | 1 -> loop (off + 1) acc (* NOP *)
      | kind ->
          if off + 1 >= stop then Error "truncated option"
          else begin
            let olen = Char.code data.[off + 1] in
            if olen < 2 || off + olen > stop then Error "bad option length"
            else begin
              let next = off + olen in
              match (kind, olen) with
              | 2, 4 -> loop next (Mss (get_u16 data (off + 2)) :: acc)
              | 3, 3 ->
                  loop next (Window_scale (Char.code data.[off + 2]) :: acc)
              | 4, 2 -> loop next (Sack_permitted :: acc)
              | 8, 10 ->
                  loop next
                    (Timestamps
                       {
                         value = get_u32 data (off + 2);
                         echo = get_u32 data (off + 6);
                       }
                    :: acc)
              | _ -> loop next acc (* unknown option: skipped *)
            end
          end
  in
  loop off []

let sub data off len = if len = 0 then "" else String.sub data off len

let decode_at data off len =
  if len < header_len then Error "segment too short"
  else begin
    let offset = Char.code data.[off + 12] lsr 4 in
    if offset < 5 then Error "bad data offset"
    else if len < offset * 4 then Error "truncated header"
    else begin
      let received = get_u16 data (off + 16) in
      (* the raw sum less the stored checksum word is the sum with the
         field zeroed *)
      let sum = Inet.sum 0 (Bytes.unsafe_of_string data) off len in
      if Inet.finish (sum - received) <> received then Error "bad checksum"
      else
        let hl = offset * 4 in
        match decode_options data (off + header_len) (off + hl) with
        | Error e -> Error e
        | Ok options ->
            Ok
              {
                src_port = get_u16 data off;
                dst_port = get_u16 data (off + 2);
                seq = get_u32 data (off + 4);
                ack = get_u32 data (off + 8);
                flags = flags_of_bits (Char.code data.[off + 13]);
                window = get_u16 data (off + 14);
                urgent = get_u16 data (off + 18);
                options;
                payload = sub data (off + hl) (len - hl);
              }
    end
  end

let decode data = decode_at data 0 (String.length data)

let of_ipv4 data =
  match Inet.check_tcp data with
  | Error e -> Error e
  | Ok (off, len) -> decode_at data off len
