type t = { mutable state : int64 }

let create seed = { state = seed }
let copy t = { state = t.state }

(* splitmix64: Steele, Lea, Flood (2014). *)
let next64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let split t = create (next64 t)
let split_n t n = Array.init n (fun _ -> split t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod n

let int32 t = Int64.to_int32 (next64 t)

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t < p

let bytes t n =
  String.init n (fun _ -> Char.chr (Int64.to_int (Int64.logand (next64 t) 0xFFL)))

let hex_digits = "0123456789abcdef"

let hex t n =
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Int64.to_int (next64 t) land 0xFF in
    Bytes.unsafe_set b (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get hex_digits (c land 0xF))
  done;
  Bytes.unsafe_to_string b
