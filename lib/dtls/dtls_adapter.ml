module Rng = Prognosis_sul.Rng
module Network = Prognosis_sul.Network
module Adapter = Prognosis_sul.Adapter
module Inet = Prognosis_sul.Inet

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
  (* DTLS rides in UDP in IPv4, like QUIC: each record is written once
     with room for both headers, framed in place and read where it
     lies. *)
  let client_ip = 0x0A000001 and server_ip = 0x0A000002 in
  let to_server datagram =
    match Inet.check_udp datagram with
    | Ok (_, off, len) ->
        Dtls_server.handle_at server ~headroom:Inet.udp_headroom datagram off
          len
    | Error _ -> []
  in
  let rec to_client outputs received = function
    | [] -> (outputs, received)
    | datagram :: rest -> (
        match Inet.check_udp datagram with
        | Error _ -> to_client outputs received rest
        | Ok (_, off, len) -> (
            match Dtls_client.absorb_at client datagram off len with
            | None -> to_client outputs received rest
            | Some (r, abstract) ->
                let outputs =
                  match abstract with Some a -> a :: outputs | None -> outputs
                in
                to_client outputs (r :: received) rest))
  in
  let rec respond outputs received = function
    | [] -> (outputs, received)
    | b :: rest ->
        let outputs, received =
          to_client outputs received
            (Network.transmit channel
               (Inet.frame_udp ~src:server_ip ~dst:client_ip ~src_port:4433
                  ~dst_port:50000 b))
        in
        respond outputs received rest
  in
  let step symbol =
    match
      Dtls_client.concretize_into client ~headroom:Inet.udp_headroom symbol
    with
    | None -> ([], [], [])
    | Some (b, request) ->
        let outputs, received =
          respond [] []
            (List.concat_map to_server
               (Network.transmit channel
                  (Inet.frame_udp ~src:client_ip ~dst:server_ip
                     ~src_port:50000 ~dst_port:4433 b)))
        in
        (List.rev outputs, [ request ], List.rev received)
  in
  ( Adapter.create ~description:"dtls" ~inputs:Dtls_alphabet.all ~reset ~step
      (),
    client )

let sul ?server_config ?network ~seed () =
  Adapter.to_sul (fst (create ?server_config ?network ~seed ()))
