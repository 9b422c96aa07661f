type symbol = Syn | Syn_ack | Ack | Ack_psh | Fin_ack | Rst | Ack_rst

let all = [| Syn; Syn_ack; Ack; Ack_psh; Fin_ack; Rst; Ack_rst |]

let to_string = function
  | Syn -> "SYN(?,?,0)"
  | Syn_ack -> "SYN+ACK(?,?,0)"
  | Ack -> "ACK(?,?,0)"
  | Ack_psh -> "ACK+PSH(?,?,1)"
  | Fin_ack -> "FIN+ACK(?,?,0)"
  | Rst -> "RST(?,?,0)"
  | Ack_rst -> "ACK+RST(?,?,0)"

let pp fmt s = Format.pp_print_string fmt (to_string s)
let payload_length = function Ack_psh -> 1 | Syn | Syn_ack | Ack | Fin_ack | Rst | Ack_rst -> 0

(* One shared record per symbol. *)
let syn_flags = { Tcp_wire.no_flags with syn = true }
let syn_ack_flags = { Tcp_wire.no_flags with syn = true; ack = true }
let ack_flags = { Tcp_wire.no_flags with ack = true }
let ack_psh_flags = { Tcp_wire.no_flags with ack = true; psh = true }
let fin_ack_flags = { Tcp_wire.no_flags with fin = true; ack = true }
let rst_flags = { Tcp_wire.no_flags with rst = true }
let ack_rst_flags = { Tcp_wire.no_flags with ack = true; rst = true }

let flags = function
  | Syn -> syn_flags
  | Syn_ack -> syn_ack_flags
  | Ack -> ack_flags
  | Ack_psh -> ack_psh_flags
  | Fin_ack -> fin_ack_flags
  | Rst -> rst_flags
  | Ack_rst -> ack_rst_flags

type output = symbol list

let output_to_string = function
  | [] -> "NIL"
  | symbols -> String.concat "," (List.map to_string symbols)

let pp_output fmt o = Format.pp_print_string fmt (output_to_string o)

(* By exact flag set (FIN 0x01, SYN 0x02, RST 0x04, PSH 0x08, ACK
   0x10, URG 0x20): "S", "SA", "A" (ACK+PSH when it carries data), "AP",
   "AF", "R" and "AR" in [Tcp_wire.flags_to_string]'s spelling. *)
let abstract (seg : Tcp_wire.segment) =
  match Tcp_wire.flag_bits seg.Tcp_wire.flags with
  | 0x02 -> Some Syn
  | 0x12 -> Some Syn_ack
  | 0x10 when seg.Tcp_wire.payload = "" -> Some Ack
  | 0x10 | 0x18 -> Some Ack_psh
  | 0x11 -> Some Fin_ack
  | 0x04 -> Some Rst
  | 0x14 -> Some Ack_rst
  | _ -> None
