(* FNV-1a + splitmix finalization, independent of the QUIC module to
   keep the substrates self-contained.

   Every hashed message is a few pieces joined by separators
   ("master|cr|sr|pms", "key#epoch#seq", "key|epoch|seq|plaintext",
   "finished|master|dir"). FNV-1a is a left fold over bytes, so the
   pieces are folded one after another on a local Int64 accumulator and
   no message string is ever built; integers are folded as their
   decimal digits, the bytes "%d" would print. The values are the same
   64-bit ones a hash of the joined string gives, so every key,
   keystream byte and tag is unchanged. *)

let fnv_prime = 0x100000001B3L

let[@inline] fold_byte h c =
  Int64.mul (Int64.logxor h (Int64.of_int c)) fnv_prime

let[@inline] fold_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fold_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* Decimal digits of [n], most significant first. *)
let[@inline] fold_int h n =
  if n < 0 then fold_string h (string_of_int n)
  else begin
    let p = ref 1 in
    while n / !p >= 10 do
      p := !p * 10
    done;
    let h = ref h in
    while !p > 0 do
      h := fold_byte !h (Char.code '0' + (n / !p mod 10));
      p := !p / 10
    done;
    !h
  end

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  logxor z (shift_right_logical z 31)

let[@inline] finalize h = mix (Int64.add h 0x9E3779B97F4A7C15L)
let fnv_basis = 0xCBF29CE484222325L
let bar = Char.code '|'
let hash_mark = Char.code '#'

let bytes_of_int64 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 v;
  Bytes.unsafe_to_string b

type direction = Client_write | Server_write

let dir_label = function Client_write -> "client" | Server_write -> "server"

(* Per-direction key, kept as the FNV states after the two message
   prefixes it opens: "key#" for the keystream seed and "key|" for the
   tag. *)
type key = { stream_prefix : int64; tag_prefix : int64 }

type keys = { master : string; client : key; server : key }
type t = { mutable keys : keys option }

let create () = { keys = None }
let reset t = t.keys <- None

let derive_key master direction =
  let h = fold_string fnv_basis master in
  let h = fold_byte h bar in
  let key = finalize (fold_string h (dir_label direction)) in
  let h = ref fnv_basis in
  for i = 7 downto 0 do
    let byte = Int64.to_int (Int64.shift_right_logical key (8 * i)) land 0xFF in
    h := fold_byte !h byte
  done;
  { stream_prefix = fold_byte !h hash_mark; tag_prefix = fold_byte !h bar }

let derive_master t ~client_random ~server_random ~premaster =
  let h = fold_string fnv_basis "master|" in
  let h = fold_byte (fold_string h client_random) bar in
  let h = fold_byte (fold_string h server_random) bar in
  let master = bytes_of_int64 (finalize (fold_string h premaster)) in
  t.keys <-
    Some
      {
        master;
        client = derive_key master Client_write;
        server = derive_key master Server_write;
      }

let ready t = t.keys <> None

let key t direction =
  match t.keys with
  | None -> None
  | Some k -> (
      match direction with
      | Client_write -> Some k.client
      | Server_write -> Some k.server)

let tag_length = 8

(* Writes [src[soff, soff+len)] XOR the keystream for (epoch, seq) to
   [dst] at [doff]: 8-byte blocks, each the next splitmix output taken
   little-endian. [src] and [dst] may be the same bytes at the same
   offset: each block is read before it is written. *)
let xor_keystream key ~epoch ~seq src soff dst doff len =
  let h = fold_byte (fold_int key.stream_prefix epoch) hash_mark in
  let state = ref (finalize (fold_int h seq)) in
  let blocks = len / 8 in
  for b = 0 to blocks - 1 do
    state := finalize !state;
    Bytes.set_int64_le dst (doff + (8 * b))
      (Int64.logxor (String.get_int64_le src (soff + (8 * b))) !state)
  done;
  if len > 8 * blocks then begin
    state := finalize !state;
    for i = 8 * blocks to len - 1 do
      let k =
        Int64.to_int (Int64.shift_right_logical !state (8 * (i land 7)))
        land 0xFF
      in
      Bytes.set dst (doff + i)
        (Char.unsafe_chr (Char.code (String.get src (soff + i)) lxor k))
    done
  end

(* The tag over the plaintext [s[off, off+len)]. *)
let tag key ~epoch ~seq s off len =
  let h = fold_byte (fold_int key.tag_prefix epoch) bar in
  let h = ref (fold_byte (fold_int h seq) bar) in
  for i = off to off + len - 1 do
    h := fold_byte !h (Char.code (String.unsafe_get s i))
  done;
  finalize !h

(* The single implementation of record protection: the tag over the
   plaintext where it lies, then the keystream XOR in place, then the
   tag after the ciphertext. *)
let seal_in_place t direction ~epoch ~seq b off len =
  match key t direction with
  | None -> false
  | Some key ->
      if off < 0 || len < 0 || off > Bytes.length b - len - tag_length then
        invalid_arg "Dtls_crypto.seal_in_place";
      let s = Bytes.unsafe_to_string b in
      let tag = tag key ~epoch ~seq s off len in
      xor_keystream key ~epoch ~seq s off b off len;
      Bytes.set_int64_be b (off + len) tag;
      true

let open_at t direction ~epoch ~seq data off len =
  match key t direction with
  | None -> None
  | Some key ->
      let n = len - tag_length in
      if n < 0 || off < 0 || off > String.length data - len then None
      else begin
        let out = Bytes.create n in
        xor_keystream key ~epoch ~seq data off out 0 n;
        let plaintext = Bytes.unsafe_to_string out in
        let received = String.get_int64_be data (off + n) in
        if Int64.equal (tag key ~epoch ~seq plaintext 0 n) received then
          Some plaintext
        else None
      end

let seal t direction ~epoch ~seq plaintext =
  let n = String.length plaintext in
  let b = Bytes.create (n + tag_length) in
  Bytes.blit_string plaintext 0 b 0 n;
  if seal_in_place t direction ~epoch ~seq b 0 n then
    Some (Bytes.unsafe_to_string b)
  else None

let open_ t direction ~epoch ~seq sealed =
  open_at t direction ~epoch ~seq sealed 0 (String.length sealed)

let verify_data t direction =
  match t.keys with
  | None -> ""
  | Some k ->
      let h = fold_string fnv_basis "finished|" in
      let h = fold_byte (fold_string h k.master) bar in
      bytes_of_int64 (finalize (fold_string h (dir_label direction)))
