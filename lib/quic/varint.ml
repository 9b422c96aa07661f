let max_value = (1 lsl 62) - 1

let encoded_length v =
  if v < 0 || v > max_value then invalid_arg "Varint: value out of range"
  else if v < 1 lsl 6 then 1
  else if v < 1 lsl 14 then 2
  else if v < 1 lsl 30 then 4
  else 8

let write b off v =
  let n = encoded_length v in
  (* the two length bits sit above the value's top byte *)
  let prefix = match n with 1 -> 0x00 | 2 -> 0x40 | 4 -> 0x80 | _ -> 0xC0 in
  let last = off + n - 1 in
  let top = (v lsr (8 * (n - 1))) land 0x3F in
  Bytes.set b off (Char.unsafe_chr (prefix lor top));
  for i = off + 1 to last do
    Bytes.set b i (Char.unsafe_chr ((v lsr (8 * (last - i))) land 0xFF))
  done;
  off + n

let encode_to_string v =
  let b = Bytes.create (encoded_length v) in
  ignore (write b 0 v);
  Bytes.unsafe_to_string b

let read s pos =
  let off = !pos in
  if off >= String.length s then invalid_arg "Varint.read: out of bounds";
  let first = Char.code s.[off] in
  let len = 1 lsl (first lsr 6) in
  if off + len > String.length s then invalid_arg "Varint.read: truncated";
  let v = ref (first land 0x3F) in
  for i = 1 to len - 1 do
    v := (!v lsl 8) lor Char.code (String.unsafe_get s (off + i))
  done;
  pos := off + len;
  !v
