module Rng = Prognosis_sul.Rng
module Network = Prognosis_sul.Network
module Adapter = Prognosis_sul.Adapter
module Inet = Prognosis_sul.Inet

type concrete = Quic_packet.t

let client_ip = 0x0A000001
let server_ip = 0x0A000002

(* the concrete form a detected stateless reset is recorded as *)
let reset_packet = Quic_packet.make Quic_packet.Stateless_reset ~dcid:""

let create ?profile ?client_config ?(network = Network.reliable) ~seed () =
  let rng = Rng.create seed in
  let server_rng = Rng.split rng in
  let client_rng = Rng.split rng in
  let channel_rng = Rng.split rng in
  let server = Quic_server.create ?profile server_rng in
  let client = Quic_client.create ?config:client_config client_rng in
  let channel = Network.create ~config:network ~seed channel_rng in
  let reset () =
    Quic_server.reset server;
    Quic_client.reset client
  in
  let step symbol =
    match Quic_client.concretize client symbol with
    | None ->
        (* The reference implementation cannot realize this symbol in
           its current state: nothing is sent (answer NIL). *)
        ([], [], [])
    | Some (wire, request) ->
        (* QUIC rides in UDP in IPv4; the server reads the source port
           from the UDP header (address validation, Issue 3). The
           server answers every delivery before any response crosses
           the channel, and the client absorbs in arrival order. *)
        let port = Quic_client.port client in
        let responses =
          List.concat_map
            (fun datagram ->
              match Inet.unwrap_udp datagram with
              | Ok (port, payload) ->
                  Quic_server.handle_datagram server ~port payload
              | Error _ -> [])
            (Network.transmit channel
               (Inet.wrap_udp ~src:client_ip ~dst:server_ip ~src_port:port
                  ~dst_port:443 wire))
        in
        let delivered =
          List.concat_map
            (fun payload ->
              Network.transmit channel
                (Inet.wrap_udp ~src:server_ip ~dst:client_ip ~src_port:443
                   ~dst_port:port payload))
            responses
        in
        let rec absorb outputs packets = function
          | [] -> (List.rev outputs, [ request ], List.rev packets)
          | datagram :: rest -> (
              match Inet.unwrap_udp datagram with
              | Error _ -> absorb outputs packets rest
              | Ok (_, payload) -> (
                  match Quic_client.absorb client payload with
                  | Quic_client.Packet p ->
                      absorb
                        (Quic_alphabet.abstract_packet p :: outputs)
                        (p :: packets) rest
                  | Quic_client.Reset ->
                      absorb
                        (Quic_alphabet.abstract_reset :: outputs)
                        (reset_packet :: packets) rest
                  | Quic_client.Junk _ -> absorb outputs packets rest))
        in
        absorb [] [] delivered
  in
  ( Adapter.create ~description:"quic" ~inputs:Quic_alphabet.extended ~reset
      ~step (),
    client )

let sul ?profile ?client_config ?network ~seed () =
  Adapter.to_sul (fst (create ?profile ?client_config ?network ~seed ()))
