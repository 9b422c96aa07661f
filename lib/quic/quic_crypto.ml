type level = Initial_level | Handshake_level | Application_level

let level_to_string = function
  | Initial_level -> "initial"
  | Handshake_level -> "handshake"
  | Application_level -> "application"

type direction = Client_to_server | Server_to_client

(* FNV-1a over OCaml's native (63-bit) int, then a splitmix-style
   finalizer for diffusion. Native int arithmetic keeps the whole
   per-packet path — key derivation, keystream, authentication —
   unboxed; the historical implementation iterated boxed [Int64]
   operations per byte and dominated the QUIC adapter's query cost.
   Constants are the usual FNV/splitmix ones truncated to 62 bits so
   they remain valid int literals. Hash values differ from the old
   Int64 variant, which is observable only inside one simulated
   connection (the scheme is symmetric and self-consistent). *)
let fnv_basis = 0x3BF29CE484222325
let fnv_prime = 0x100000001B3
let golden = 0x1E3779B97F4A7C15

let[@inline] mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

(* Folds [b[off, off+len)] eight bytes per multiply where possible
   (the trailing mix supplies the diffusion FNV normally gets from its
   per-byte step). Lanes start at [off], so a region hashes the same
   wherever it lies. *)
let fold_sub h b off len =
  let h = ref h in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    h := (!h lxor Int64.to_int (Bytes.get_int64_le b !i)) * fnv_prime;
    i := !i + 8
  done;
  while !i < stop do
    h := (!h lxor Char.code (Bytes.get b !i)) * fnv_prime;
    incr i
  done;
  !h

(* Strings are only ever read through [Bytes.unsafe_of_string]. *)
let fold_string h s = fold_sub h (Bytes.unsafe_of_string s) 0 (String.length s)

let[@inline] fold_int h v =
  (((h lxor (v land 0xFFFFFFFF)) * fnv_prime) lxor ((v lsr 32) land 0xFFFFFFFF))
  * fnv_prime

let[@inline] fold_byte h b = (h lxor b) * fnv_prime
let hash s = mix (fold_string fnv_basis s)
let hash64 s = Int64.of_int (hash s)

let bytes_of_hash v =
  String.init 8 (fun i -> Char.unsafe_chr ((v lsr (8 * (7 - i))) land 0xFF))

(* hash(secret ^ "/" ^ label) without building the concatenation *)
let derive secret label =
  let h = fold_byte (fold_string fnv_basis secret) (Char.code '/') in
  bytes_of_hash (mix (fold_string h label))

type secrets = { c2s : string; s2c : string }

type t = {
  mutable initial : secrets option;
  mutable handshake : secrets option;
  mutable application : secrets option;
  mutable app_phase : int;
}

let create () =
  { initial = None; handshake = None; application = None; app_phase = 0 }

let make_secrets base =
  { c2s = derive base "client"; s2c = derive base "server" }

let install_initial t ~dcid =
  t.initial <- Some (make_secrets (derive ("initial:" ^ dcid) "base"))

let install_handshake t ~client_random ~server_random =
  let base = derive ("hs:" ^ client_random ^ ":" ^ server_random) "base" in
  t.handshake <- Some (make_secrets base);
  t.application <- Some (make_secrets (derive base "app"))

let slot t = function
  | Initial_level -> t.initial
  | Handshake_level -> t.handshake
  | Application_level -> t.application

let drop_level t = function
  | Initial_level -> t.initial <- None
  | Handshake_level -> t.handshake <- None
  | Application_level -> t.application <- None

let has_level t level = Option.is_some (slot t level)

let key_for secrets = function
  | Client_to_server -> secrets.c2s
  | Server_to_client -> secrets.s2c

(* The next key generation for one direction (RFC 9001 §6). *)
let next_key secrets direction = derive (key_for secrets direction) "ku"

let update_application t =
  match t.application with
  | None -> ()
  | Some secrets ->
      t.application <-
        Some
          {
            c2s = next_key secrets Client_to_server;
            s2c = next_key secrets Server_to_client;
          };
      t.app_phase <- t.app_phase + 1

let application_phase t = t.app_phase

let tag_length = 8

(* Keystream-XOR of [src[soff, soff+len)] into [dst] at [doff]:
   splitmix-style stream seeded from (key, packet number), consumed 8
   bytes per mixing round. Encryption and decryption are the same
   operation, and [src == dst, soff = doff] runs it in place. *)
let crypt key ~pn src soff dst doff len =
  let state = ref (mix (fold_int (fold_string fnv_basis key) pn)) in
  let i = ref 0 in
  (* whole 64-bit lanes: the keystream block is consumed low byte
     first, i.e. little-endian, so a masked int64 XOR reproduces the
     byte-at-a-time loop exactly (bit 63 of a keystream word is always
     zero: the state is a 63-bit int) *)
  while !i + 8 <= len do
    state := mix (!state + golden);
    let ks = Int64.logand (Int64.of_int !state) 0x7FFFFFFFFFFFFFFFL in
    Bytes.set_int64_le dst (doff + !i)
      (Int64.logxor (Bytes.get_int64_le src (soff + !i)) ks);
    i := !i + 8
  done;
  if !i < len then begin
    state := mix (!state + golden);
    let block = ref !state in
    while !i < len do
      Bytes.set dst (doff + !i)
        (Char.unsafe_chr
           (Char.code (Bytes.get src (soff + !i)) lxor (!block land 0xFF)));
      block := !block lsr 8;
      incr i
    done
  end

(* hash(key | pn | header | plaintext) without building the
   concatenation *)
let auth_hash key ~pn hdr hoff hlen data doff dlen =
  let h = fold_string fnv_basis key in
  let h = fold_int (fold_byte h (Char.code '|')) pn in
  let h = fold_sub (fold_byte h (Char.code '|')) hdr hoff hlen in
  mix (fold_sub (fold_byte h (Char.code '|')) data doff dlen)

(* The single implementation of packet protection. [seal_core] takes
   the plaintext at [buf[off, off+n)], tags it (with the header at
   [hdr[hoff, hoff+hlen)]), encrypts it where it lies and writes the
   tag right after it. [open_core] decrypts [src[off, off+n-tag)] into
   a fresh string and checks the trailing tag over that plaintext. *)
let seal_core key ~pn hdr hoff hlen buf off n =
  let tag = auth_hash key ~pn hdr hoff hlen buf off n in
  crypt key ~pn buf off buf off n;
  for i = 0 to tag_length - 1 do
    Bytes.set buf (off + n + i)
      (Char.unsafe_chr ((tag lsr (8 * (7 - i))) land 0xFF))
  done

let open_core key ~pn hdr hoff hlen src off n =
  if n < tag_length then None
  else begin
    let body = n - tag_length in
    let plaintext = Bytes.create body in
    crypt key ~pn src off plaintext 0 body;
    let tag = auth_hash key ~pn hdr hoff hlen plaintext 0 body in
    (* constant-shape tag comparison against the trailing bytes *)
    let ok = ref true in
    for i = 0 to tag_length - 1 do
      if
        Char.code (Bytes.get src (off + body + i))
        <> (tag lsr (8 * (7 - i))) land 0xFF
      then ok := false
    done;
    if !ok then Some (Bytes.unsafe_to_string plaintext) else None
  end

let seal_in_place t level direction ~pn buf ~header_len ~payload_len =
  match slot t level with
  | None -> false
  | Some secrets ->
      seal_core (key_for secrets direction) ~pn buf 0 header_len buf header_len
        payload_len;
      true

let open_at t level direction ~pn data ~header_len ~sealed_len =
  match slot t level with
  | None -> None
  | Some secrets ->
      let b = Bytes.unsafe_of_string data in
      open_core (key_for secrets direction) ~pn b 0 header_len b header_len
        sealed_len

let open_updated_application_at t direction ~pn data ~header_len ~sealed_len =
  match t.application with
  | None -> None
  | Some secrets ->
      let b = Bytes.unsafe_of_string data in
      open_core (next_key secrets direction) ~pn b 0 header_len b header_len
        sealed_len

let seal t level direction ~pn ~header plaintext =
  match slot t level with
  | None -> None
  | Some secrets ->
      let n = String.length plaintext in
      let out = Bytes.create (n + tag_length) in
      Bytes.blit_string plaintext 0 out 0 n;
      seal_core (key_for secrets direction) ~pn (Bytes.unsafe_of_string header)
        0 (String.length header) out 0 n;
      Some (Bytes.unsafe_to_string out)

let open_key key ~pn ~header sealed =
  open_core key ~pn (Bytes.unsafe_of_string header) 0 (String.length header)
    (Bytes.unsafe_of_string sealed) 0 (String.length sealed)

let open_ t level direction ~pn ~header sealed =
  match slot t level with
  | None -> None
  | Some secrets -> open_key (key_for secrets direction) ~pn ~header sealed

let open_updated_application t direction ~pn ~header sealed =
  match t.application with
  | None -> None
  | Some secrets -> open_key (next_key secrets direction) ~pn ~header sealed

let stateless_reset_token ~dcid =
  derive ("srt:" ^ dcid) "token" ^ derive ("srt2:" ^ dcid) "token"
