let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xFFFF)

let set_u32 b off v =
  set_u16 b off ((v lsr 16) land 0xFFFF);
  set_u16 b (off + 2) (v land 0xFFFF)

let get_u16 s off = String.get_uint16_be s off
let get_u32 s off = (get_u16 s off lsl 16) lor get_u16 s (off + 2)

(* RFC 1071 ones-complement checksum, split into a raw 16-bit word sum
   and a finalizer. The sum over a concatenation of even-length pieces
   equals the sum of per-piece sums, so callers fold pseudo-header
   fields in as integers instead of materializing the concatenation. *)
let sum_bytes acc b off len =
  let sum = ref acc in
  let i = ref off in
  let stop = off + len in
  (* callers pass ranges they have bounds-checked *)
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

(* A failed header check; its message is the decoder's [Error]. *)
exception Reject of string

module Ipv4 = struct
  type t = { src : int; dst : int; ttl : int; protocol : int; payload : string }

  let tcp_protocol = 6
  let udp_protocol = 17
  let header_len = 20

  (* The 20-byte header at the front of [b], whose [total] bytes the
     caller fills with the payload. *)
  let write_header b ~total ~ttl ~protocol ~src ~dst =
    Bytes.set b 0 (Char.chr 0x45) (* version 4, IHL 5 *);
    Bytes.set b 1 '\000';
    set_u16 b 2 total;
    Bytes.fill b 4 4 '\000';
    Bytes.set b 8 (Char.chr (ttl land 0xFF));
    Bytes.set b 9 (Char.chr (protocol land 0xFF));
    set_u16 b 10 0;
    set_u32 b 12 src;
    set_u32 b 16 dst;
    (* checksum field is still zero here, so summing the header in
       place is the sum-with-zeroed-field the RFC asks for *)
    set_u16 b 10 (finish (sum_bytes 0 b 0 header_len))

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

let wrap_tcp ~src ~dst payload =
  Ipv4.encode
    { Ipv4.src; dst; ttl = 64; protocol = Ipv4.tcp_protocol; payload }

let unwrap_tcp data =
  match Ipv4.decode data with
  | Error e -> Error e
  | Ok ip ->
      if ip.Ipv4.protocol <> Ipv4.tcp_protocol then Error "ipv4: not TCP"
      else Ok ip.Ipv4.payload

(* One buffer for both headers and the payload: IPv4 header, UDP
   header, payload. *)
let wrap_udp ~src ~dst ~src_port ~dst_port payload =
  let ip_len = Ipv4.header_len and udp_len = Udp.header_len in
  let udp_total = udp_len + String.length payload in
  let total = ip_len + udp_total in
  if total > 0xFFFF then invalid_arg "Ipv4.encode: payload too large";
  let b = Bytes.create total in
  Bytes.blit_string payload 0 b (ip_len + udp_len) (String.length payload);
  Udp.write_header b ip_len ~total:udp_total ~src_ip:src ~dst_ip:dst ~src_port
    ~dst_port;
  Ipv4.write_header b ~total ~ttl:64 ~protocol:Ipv4.udp_protocol ~src ~dst;
  Bytes.unsafe_to_string b

(* The checks of [Ipv4.decode] then [Udp.decode] on the datagram as it
   lies; only the payload is copied out. *)
let unwrap_udp data =
  let ip_len = Ipv4.header_len and udp_len = Udp.header_len in
  match
    let total = Ipv4.check data in
    if Char.code data.[9] <> Ipv4.udp_protocol then
      raise (Reject "ipv4: not UDP");
    Udp.check ~src_ip:(get_u32 data 12) ~dst_ip:(get_u32 data 16) data ip_len
      (total - ip_len)
  with
  | exception Reject e -> Error e
  | udp_total ->
      Ok
        ( get_u16 data ip_len,
          String.sub data (ip_len + udp_len) (udp_total - udp_len) )
