let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xFFFF)

let get_u16 s off = String.get_uint16_be s off
let get_u32 s off = (get_u16 s off lsl 16) lor get_u16 s (off + 2)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* RFC 1071 ones-complement checksum, split into a raw 16-bit word sum
   and a finalizer. The sum over a concatenation of even-length pieces
   equals the sum of per-piece sums, so callers fold pseudo-header
   fields in as integers instead of materializing the concatenation.
   Eight bytes are loaded at a time, as one big-endian 64-bit word, and
   added as its four 16-bit words: the same integer the byte-pair loop
   below computes. *)
let sum_bytes acc b off len =
  let sum = ref acc in
  let i = ref off in
  let stop = off + len in
  (* callers pass ranges they have bounds-checked *)
  while !i + 8 <= stop do
    let w = get64u b !i in
    let w = if Sys.big_endian then w else bswap64 w in
    sum :=
      !sum
      + Int64.to_int (Int64.shift_right_logical w 48)
      + (Int64.to_int (Int64.shift_right_logical w 32) land 0xFFFF)
      + (Int64.to_int (Int64.shift_right_logical w 16) land 0xFFFF)
      + (Int64.to_int w land 0xFFFF);
    i := !i + 8
  done;
  while !i + 1 < stop do
    sum :=
      !sum
      + (Char.code (Bytes.unsafe_get b !i) lsl 8)
      + Char.code (Bytes.unsafe_get b (!i + 1));
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.unsafe_get b !i) lsl 8);
  !sum

(* Strings are only ever read through [Bytes.unsafe_of_string]. *)
let sum_string acc s off len = sum_bytes acc (Bytes.unsafe_of_string s) off len

let finish sum =
  let sum = ref sum in
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

let sum acc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Inet.sum";
  sum_bytes acc b off len

(* A failed header check; its message is the decoder's [Error]. *)
exception Reject of string

module Ipv4 = struct
  type t = { src : int; dst : int; ttl : int; protocol : int; payload : string }

  let tcp_protocol = 6
  let udp_protocol = 17
  let header_len = 20

  (* The 20-byte header at the front of [b], whose [total] bytes the
     caller fills with the payload. Its checksum is summed from the
     field values just written: the header's ten 16-bit words, the
     checksum word zero. *)
  let write_header b ~total ~ttl ~protocol ~src ~dst =
    let total = total land 0xFFFF in
    let ttl_protocol = ((ttl land 0xFF) lsl 8) lor (protocol land 0xFF) in
    let src = src land 0xFFFFFFFF and dst = dst land 0xFFFFFFFF in
    Bytes.set_uint16_be b 0 0x4500 (* version 4, IHL 5 *);
    Bytes.set_uint16_be b 2 total;
    Bytes.set_int32_be b 4 0l;
    Bytes.set_uint16_be b 8 ttl_protocol;
    Bytes.set_int32_be b 12 (Int32.of_int src);
    Bytes.set_int32_be b 16 (Int32.of_int dst);
    Bytes.set_uint16_be b 10
      (finish
         (0x4500 + total + ttl_protocol + (src lsr 16) + (src land 0xFFFF)
         + (dst lsr 16) + (dst land 0xFFFF)))

  (* Every header check, in place: the total length when they all
     pass.
     @raise Reject otherwise. *)
  let check data =
    if String.length data < header_len then raise (Reject "ipv4: too short");
    if Char.code data.[0] <> 0x45 then raise (Reject "ipv4: not v4/IHL5");
    let total = get_u16 data 2 in
    if total > String.length data then raise (Reject "ipv4: truncated");
    let received = get_u16 data 10 in
    (* subtracting the stored checksum word from the raw sum is the
       same as summing with the field zeroed (both lie on a 16-bit word
       boundary) *)
    if finish (sum_string 0 data 0 header_len - received) <> received then
      raise (Reject "ipv4: bad header checksum");
    if total < header_len then raise (Reject "ipv4: bad total length");
    total

  let encode t =
    let total = header_len + String.length t.payload in
    if total > 0xFFFF then invalid_arg "Ipv4.encode: payload too large";
    let b = Bytes.create total in
    Bytes.blit_string t.payload 0 b header_len (String.length t.payload);
    write_header b ~total ~ttl:t.ttl ~protocol:t.protocol ~src:t.src ~dst:t.dst;
    Bytes.unsafe_to_string b

  let decode data =
    match check data with
    | exception Reject e -> Error e
    | total ->
        Ok
          {
            src = get_u32 data 12;
            dst = get_u32 data 16;
            ttl = Char.code data.[8];
            protocol = Char.code data.[9];
            payload = String.sub data header_len (total - header_len);
          }
end

module Udp = struct
  type t = { src_port : int; dst_port : int; payload : string }

  let header_len = 8

  (* the 12-byte (even-length) pseudo header folded directly into the
     running sum: src ip, dst ip, protocol, UDP length *)
  let pseudo_sum ~src_ip ~dst_ip ~length =
    ((src_ip lsr 16) land 0xFFFF)
    + (src_ip land 0xFFFF)
    + ((dst_ip lsr 16) land 0xFFFF)
    + (dst_ip land 0xFFFF)
    + Ipv4.udp_protocol + length

  (* The 8-byte header at [off] in [b], in front of the payload the
     caller has already written: [total] bytes in all. [off] is even,
     so the checksum words pair up as in a standalone datagram. *)
  let write_header b off ~total ~src_ip ~dst_ip ~src_port ~dst_port =
    set_u16 b off src_port;
    set_u16 b (off + 2) dst_port;
    set_u16 b (off + 4) total;
    set_u16 b (off + 6) 0;
    let sum =
      finish (sum_bytes (pseudo_sum ~src_ip ~dst_ip ~length:total) b off total)
    in
    set_u16 b (off + 6) (if sum = 0 then 0xFFFF else sum)

  (* Every check on the [avail] bytes at [off] (even) in [data], in
     place: the UDP length when they all pass.
     @raise Reject otherwise. *)
  let check ~src_ip ~dst_ip data off avail =
    if avail < header_len then raise (Reject "udp: too short");
    let total = get_u16 data (off + 4) in
    if total > avail || total < header_len then
      raise (Reject "udp: bad length");
    let received = get_u16 data (off + 6) in
    let sum =
      let pseudo = pseudo_sum ~src_ip ~dst_ip ~length:total in
      finish (sum_string pseudo data off total - received)
    in
    let sum = if sum = 0 then 0xFFFF else sum in
    if received <> 0 && sum <> received then raise (Reject "udp: bad checksum");
    total

  let encode ~src_ip ~dst_ip t =
    let total = header_len + String.length t.payload in
    let b = Bytes.create total in
    Bytes.blit_string t.payload 0 b header_len (String.length t.payload);
    write_header b 0 ~total ~src_ip ~dst_ip ~src_port:t.src_port
      ~dst_port:t.dst_port;
    Bytes.unsafe_to_string b

  let decode ~src_ip ~dst_ip data =
    match check ~src_ip ~dst_ip data 0 (String.length data) with
    | exception Reject e -> Error e
    | total ->
        Ok
          {
            src_port = get_u16 data 0;
            dst_port = get_u16 data 2;
            payload = String.sub data header_len (total - header_len);
          }
end

(* --- write-once datagrams ---------------------------------------- *)

let tcp_headroom = Ipv4.header_len
let udp_headroom = Ipv4.header_len + Udp.header_len

let frame_tcp ~src ~dst b =
  let total = Bytes.length b in
  if total > 0xFFFF then invalid_arg "Ipv4.encode: payload too large";
  Ipv4.write_header b ~total ~ttl:64 ~protocol:Ipv4.tcp_protocol ~src ~dst;
  Bytes.unsafe_to_string b

(* Both headers in front of the payload the caller has written: UDP
   first, since the IPv4 header does not cover it. *)
let frame_udp ~src ~dst ~src_port ~dst_port b =
  let total = Bytes.length b in
  if total > 0xFFFF then invalid_arg "Ipv4.encode: payload too large";
  Udp.write_header b Ipv4.header_len ~total:(total - Ipv4.header_len)
    ~src_ip:src ~dst_ip:dst ~src_port ~dst_port;
  Ipv4.write_header b ~total ~ttl:64 ~protocol:Ipv4.udp_protocol ~src ~dst;
  Bytes.unsafe_to_string b

(* The IPv4 checks and the protocol: the datagram's total length.
   @raise Reject otherwise. *)
let ipv4_total data ~protocol ~not_it =
  let total = Ipv4.check data in
  if Char.code data.[9] <> protocol then raise (Reject not_it);
  total

let tcp_total data =
  ipv4_total data ~protocol:Ipv4.tcp_protocol ~not_it:"ipv4: not TCP"

(* The checks of [Ipv4.decode] then [Udp.decode], in place: the UDP
   length. *)
let udp_total data =
  let ip_len = Ipv4.header_len in
  let total =
    ipv4_total data ~protocol:Ipv4.udp_protocol ~not_it:"ipv4: not UDP"
  in
  Udp.check ~src_ip:(get_u32 data 12) ~dst_ip:(get_u32 data 16) data ip_len
    (total - ip_len)

let check_tcp data =
  match tcp_total data with
  | exception Reject e -> Error e
  | total -> Ok (tcp_headroom, total - tcp_headroom)

let check_udp data =
  match udp_total data with
  | exception Reject e -> Error e
  | total ->
      Ok (get_u16 data Ipv4.header_len, udp_headroom, total - Udp.header_len)

let wrap_tcp ~src ~dst payload =
  let n = String.length payload in
  let b = Bytes.create (tcp_headroom + n) in
  Bytes.blit_string payload 0 b tcp_headroom n;
  frame_tcp ~src ~dst b

let unwrap_tcp data =
  match tcp_total data with
  | exception Reject e -> Error e
  | total -> Ok (String.sub data tcp_headroom (total - tcp_headroom))

let wrap_udp ~src ~dst ~src_port ~dst_port payload =
  let n = String.length payload in
  let b = Bytes.create (udp_headroom + n) in
  Bytes.blit_string payload 0 b udp_headroom n;
  frame_udp ~src ~dst ~src_port ~dst_port b

let unwrap_udp data =
  match udp_total data with
  | exception Reject e -> Error e
  | total ->
      Ok
        ( get_u16 data Ipv4.header_len,
          String.sub data udp_headroom (total - Udp.header_len) )
