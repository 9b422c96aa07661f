module Rng = Prognosis_sul.Rng
module Network = Prognosis_sul.Network
module Adapter = Prognosis_sul.Adapter
open Tcp_wire

type symbol =
  | Cmd_connect
  | Cmd_send
  | Cmd_close
  | In_syn_ack
  | In_ack
  | In_ack_psh
  | In_fin_ack
  | In_rst

let all =
  [| Cmd_connect; Cmd_send; Cmd_close; In_syn_ack; In_ack; In_ack_psh; In_fin_ack; In_rst |]

let to_string = function
  | Cmd_connect -> "CONNECT"
  | Cmd_send -> "SEND"
  | Cmd_close -> "CLOSE"
  | In_syn_ack -> "SYN+ACK(?,?,0)"
  | In_ack -> "ACK(?,?,0)"
  | In_ack_psh -> "ACK+PSH(?,?,1)"
  | In_fin_ack -> "FIN+ACK(?,?,0)"
  | In_rst -> "RST(?,?,0)"

let pp fmt s = Format.pp_print_string fmt (to_string s)

type output = Tcp_alphabet.symbol list

let output_to_string = Tcp_alphabet.output_to_string
let pp_output = Tcp_alphabet.pp_output

(* The reference server endpoint: enough connection state to build
   valid server→client segments on demand. *)
type peer = {
  rng : Rng.t;
  src_port : int;  (** the server's port *)
  dst_port : int;  (** the client's port *)
  mutable iss : int;
  mutable snd_nxt : int;
  mutable rcv_nxt : int;
  mutable got_syn : bool;
  mutable syn_acked : bool;  (** our SYN+ACK's sequence space consumed *)
  mutable fin_sent : bool;
}

let peer_reset p =
  p.iss <- Rng.int p.rng 0x40000000;
  p.snd_nxt <- p.iss;
  p.rcv_nxt <- 0;
  p.got_syn <- false;
  p.syn_acked <- false;
  p.fin_sent <- false

let peer_create ~src_port ~dst_port rng =
  let p =
    {
      rng;
      src_port;
      dst_port;
      iss = 0;
      snd_nxt = 0;
      rcv_nxt = 0;
      got_syn = false;
      syn_acked = false;
      fin_sent = false;
    }
  in
  peer_reset p;
  p

let peer_absorb p (seg : segment) =
  if seg.flags.syn then begin
    p.got_syn <- true;
    p.rcv_nxt <- seq_add seg.seq 1
  end
  else if seg.flags.fin then
    p.rcv_nxt <- seq_add p.rcv_nxt (String.length seg.payload + 1)
  else if String.length seg.payload > 0 then
    p.rcv_nxt <- seq_add p.rcv_nxt (String.length seg.payload)

let peer_build p ?(payload = "") ~seq ~ack flags =
  make ~payload ~src_port:p.src_port ~dst_port:p.dst_port ~seq ~ack flags

let peer_concretize p symbol =
  match symbol with
  | In_syn_ack ->
      let flags = { no_flags with syn = true; ack = true } in
      if p.got_syn && not p.syn_acked then begin
        let seg = peer_build p ~seq:p.iss ~ack:p.rcv_nxt flags in
        p.snd_nxt <- seq_add p.iss 1;
        p.syn_acked <- true;
        seg
      end
      else if p.syn_acked then
        (* Retransmission of the same SYN+ACK. *)
        peer_build p ~seq:p.iss ~ack:p.rcv_nxt flags
      else peer_build p ~seq:p.iss ~ack:0 flags
  | In_ack -> peer_build p ~seq:p.snd_nxt ~ack:p.rcv_nxt { no_flags with ack = true }
  | In_ack_psh ->
      let flags = { no_flags with ack = true; psh = true } in
      if p.syn_acked && not p.fin_sent then begin
        let seg = peer_build p ~payload:"S" ~seq:p.snd_nxt ~ack:p.rcv_nxt flags in
        p.snd_nxt <- seq_add p.snd_nxt 1;
        seg
      end
      else peer_build p ~payload:"S" ~seq:p.snd_nxt ~ack:p.rcv_nxt flags
  | In_fin_ack ->
      let flags = { no_flags with fin = true; ack = true } in
      if p.syn_acked && not p.fin_sent then begin
        let seg = peer_build p ~seq:p.snd_nxt ~ack:p.rcv_nxt flags in
        p.snd_nxt <- seq_add p.snd_nxt 1;
        p.fin_sent <- true;
        seg
      end
      else if p.fin_sent then
        peer_build p ~seq:(seq_add p.snd_nxt (-1)) ~ack:p.rcv_nxt flags
      else peer_build p ~seq:p.snd_nxt ~ack:p.rcv_nxt flags
  | In_rst -> peer_build p ~seq:p.snd_nxt ~ack:0 { no_flags with rst = true }
  | Cmd_connect | Cmd_send | Cmd_close ->
      invalid_arg "peer_concretize: application commands are not packets"

let adapter ?(network = Network.reliable) ~seed () =
  let rng = Rng.create seed in
  let machine_rng = Rng.split rng in
  let peer_rng = Rng.split rng in
  let channel_rng = Rng.split rng in
  let client = Tcp_client_machine.create ~src_port:40000 ~dst_port:443 machine_rng in
  let peer = peer_create ~src_port:443 ~dst_port:40000 peer_rng in
  let channel = Network.create ~config:network ~seed channel_rng in
  let reset () =
    Tcp_client_machine.reset client;
    peer_reset peer
  in
  let client_ip = 0x0A000001 and server_ip = 0x0A000002 in
  let deliver_to_peer emitted =
    (* Client segments cross the channel (inside IPv4) to the peer. *)
    List.concat_map
      (fun seg ->
        Network.transmit channel
          (Prognosis_sul.Inet.wrap_tcp ~src:client_ip ~dst:server_ip (encode seg)))
      emitted
    |> List.filter_map (fun datagram ->
           match Prognosis_sul.Inet.unwrap_tcp datagram with
           | Ok bytes -> (
               match decode bytes with Ok seg -> Some seg | Error _ -> None)
           | Error _ -> None)
  in
  let step symbol =
    match symbol with
    | Cmd_connect | Cmd_send | Cmd_close ->
        let cmd =
          match symbol with
          | Cmd_connect -> Tcp_client_machine.Connect
          | Cmd_send -> Tcp_client_machine.Send
          | _ -> Tcp_client_machine.Close
        in
        let emitted = Tcp_client_machine.command client cmd in
        let received = deliver_to_peer emitted in
        List.iter (peer_absorb peer) received;
        (List.filter_map Tcp_alphabet.abstract received, [], received)
    | In_syn_ack | In_ack | In_ack_psh | In_fin_ack | In_rst ->
        let request = peer_concretize peer symbol in
        let deliveries =
          Network.transmit channel
            (Prognosis_sul.Inet.wrap_tcp ~src:server_ip ~dst:client_ip
               (encode request))
        in
        let emitted =
          List.concat_map
            (fun datagram ->
              match Prognosis_sul.Inet.unwrap_tcp datagram with
              | Ok bytes -> Tcp_client_machine.handle_bytes client bytes
              | Error _ -> [])
            deliveries
          |> List.filter_map (fun bytes ->
                 match decode bytes with Ok seg -> Some seg | Error _ -> None)
        in
        (* These already crossed the wire once (handle_bytes works on
           encoded datagrams); deliver them to the peer. *)
        let received = deliver_to_peer emitted in
        List.iter (peer_absorb peer) received;
        (List.filter_map Tcp_alphabet.abstract received, [ request ], received)
  in
  Adapter.create ~description:"tcp-client" ~reset ~step ()

let sul ?network ~seed () = Adapter.to_sul (adapter ?network ~seed ())
