module Rng = Prognosis_sul.Rng
module Network = Prognosis_sul.Network
module Adapter = Prognosis_sul.Adapter

type concrete = Dtls_wire.record_

let create ?server_config ?(network = Network.reliable) ~seed () =
  let rng = Rng.create seed in
  let server = Dtls_server.create ?config:server_config (Rng.split rng) in
  let client = Dtls_client.create (Rng.split rng) in
  let channel = Network.create ~config:network ~seed (Rng.split rng) in
  let reset () =
    Dtls_server.reset server;
    Dtls_client.reset client
  in
  let step symbol =
    match Dtls_client.concretize client symbol with
    | None -> ([], [], [])
    | Some (wire, request) ->
        (* DTLS rides in UDP in IPv4, like QUIC. *)
        let client_ip = 0x0A000001 and server_ip = 0x0A000002 in
        let deliveries =
          Network.transmit channel
            (Prognosis_sul.Inet.wrap_udp ~src:client_ip ~dst:server_ip
               ~src_port:50000 ~dst_port:4433 wire)
        in
        let responses =
          List.concat_map
            (fun datagram ->
              match Prognosis_sul.Inet.unwrap_udp datagram with
              | Ok (_, payload) -> Dtls_server.handle_datagram server payload
              | Error _ -> [])
            deliveries
        in
        let received =
          List.concat_map
            (fun payload ->
              Network.transmit channel
                (Prognosis_sul.Inet.wrap_udp ~src:server_ip ~dst:client_ip
                   ~src_port:4433 ~dst_port:50000 payload))
            responses
          |> List.filter_map (fun datagram ->
                 match Prognosis_sul.Inet.unwrap_udp datagram with
                 | Ok (_, payload) -> Dtls_client.absorb client payload
                 | Error _ -> None)
        in
        let output = List.filter_map Dtls_alphabet.abstract received in
        (output, [ request ], received)
  in
  ( Adapter.create ~description:"dtls" ~inputs:Dtls_alphabet.all ~reset ~step
      (),
    client )

let sul ?server_config ?network ~seed () =
  Adapter.to_sul (fst (create ?server_config ?network ~seed ()))
