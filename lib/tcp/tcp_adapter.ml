module Rng = Prognosis_sul.Rng
module Network = Prognosis_sul.Network
module Adapter = Prognosis_sul.Adapter

type concrete = Tcp_wire.segment

let create ?server_config ?(network = Network.reliable) ~seed () =
  let rng = Rng.create seed in
  let server_rng = Rng.split rng in
  let client_rng = Rng.split rng in
  let channel_rng = Rng.split rng in
  let server = Tcp_server.create ?config:server_config server_rng in
  let dst_port = (Tcp_server.config server).Tcp_server.port in
  let client = Tcp_client.create ~dst_port client_rng in
  let channel = Network.create ~config:network ~seed channel_rng in
  let reset () =
    Tcp_server.reset server;
    Tcp_client.reset client
  in
  (* Segments travel inside real IPv4 datagrams (Example 3.1). *)
  let client_ip = 0x0A000001 and server_ip = 0x0A000002 in
  let step symbol =
    let request = Tcp_client.concretize client symbol in
    let deliveries =
      Network.transmit channel
        (Prognosis_sul.Inet.wrap_tcp ~src:client_ip ~dst:server_ip
           (Tcp_wire.encode request))
    in
    let responses =
      List.concat_map
        (fun datagram ->
          match Prognosis_sul.Inet.unwrap_tcp datagram with
          | Ok segment_bytes -> Tcp_server.handle_bytes server segment_bytes
          | Error _ -> [])
        deliveries
    in
    (* Responses also cross the network back to the client. *)
    let received =
      List.concat_map
        (fun tcp_bytes ->
          Network.transmit channel
            (Prognosis_sul.Inet.wrap_tcp ~src:server_ip ~dst:client_ip tcp_bytes))
        responses
      |> List.filter_map (fun datagram ->
             match Prognosis_sul.Inet.unwrap_tcp datagram with
             | Ok bytes -> (
                 match Tcp_wire.decode bytes with
                 | Ok seg -> Some seg
                 | Error _ -> None)
             | Error _ -> None)
    in
    List.iter (Tcp_client.absorb client) received;
    let output = List.filter_map Tcp_alphabet.abstract received in
    (output, [ request ], received)
  in
  Adapter.create ~description:"tcp" ~reset ~step ()

let sul ?server_config ?network ~seed () =
  Adapter.to_sul (create ?server_config ?network ~seed ())
