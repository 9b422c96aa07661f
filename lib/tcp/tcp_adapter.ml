module Rng = Prognosis_sul.Rng
module Network = Prognosis_sul.Network
module Adapter = Prognosis_sul.Adapter
module Inet = Prognosis_sul.Inet

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
  (* Segments travel inside real IPv4 datagrams (Example 3.1), each
     written once with room for its IPv4 header and read where it
     lies. *)
  let client_ip = 0x0A000001 and server_ip = 0x0A000002 in
  let to_server datagram =
    match Inet.check_tcp datagram with
    | Ok (off, len) ->
        Tcp_server.handle_at server ~headroom:Inet.tcp_headroom datagram off
          len
    | Error _ -> []
  in
  (* Responses also cross the network back to the client. *)
  let rec to_client outputs received = function
    | [] -> (outputs, received)
    | datagram :: rest -> (
        match Tcp_wire.of_ipv4 datagram with
        | Error _ -> to_client outputs received rest
        | Ok seg ->
            Tcp_client.absorb client seg;
            let outputs =
              match Tcp_alphabet.abstract seg with
              | Some o -> o :: outputs
              | None -> outputs
            in
            to_client outputs (seg :: received) rest)
  in
  let rec respond outputs received = function
    | [] -> (outputs, received)
    | b :: rest ->
        let outputs, received =
          to_client outputs received
            (Network.transmit channel
               (Inet.frame_tcp ~src:server_ip ~dst:client_ip b))
        in
        respond outputs received rest
  in
  let step symbol =
    let request = Tcp_client.concretize client symbol in
    let outputs, received =
      respond [] []
        (List.concat_map to_server
           (Network.transmit channel
              (Tcp_wire.to_ipv4 ~src:client_ip ~dst:server_ip request)))
    in
    (List.rev outputs, [ request ], List.rev received)
  in
  Adapter.create ~description:"tcp" ~inputs:Tcp_alphabet.all ~reset ~step ()

let sul ?server_config ?network ~seed () =
  Adapter.to_sul (create ?server_config ?network ~seed ())
