(* Property-based tests over the wire codecs, the crypto simulation and
   the learning pipeline: the invariants that must hold for arbitrary
   data, not just the fixtures. *)

module Mealy = Prognosis_automata.Mealy
module Testing = Prognosis_automata.Testing
module Rng = Prognosis_sul.Rng
module Sul = Prognosis_sul.Sul
module Oracle = Prognosis_learner.Oracle
module Lstar = Prognosis_learner.Lstar
module Ttt = Prognosis_learner.Ttt
module Eq_oracle = Prognosis_learner.Eq_oracle
module Tcp_wire = Prognosis_tcp.Tcp_wire
module Varint = Prognosis_quic.Varint
module Frame = Prognosis_quic.Frame
module Quic_packet = Prognosis_quic.Quic_packet
module Quic_crypto = Prognosis_quic.Quic_crypto

let gen = QCheck2.Gen.int_range

(* --- varint --- *)

let gen_varint_value =
  QCheck2.Gen.oneof
    [
      gen 0 63;
      gen 64 16383;
      gen 16384 1073741823;
      QCheck2.Gen.map (fun v -> abs v mod Varint.max_value) QCheck2.Gen.int;
    ]

let prop_varint_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"varint roundtrip" gen_varint_value (fun v ->
      let s = Varint.encode_to_string v in
      let pos = ref 0 in
      let v' = Varint.read s pos in
      v = v' && !pos = String.length s)

let prop_varint_sequence =
  QCheck2.Test.make ~count:300 ~name:"varint sequences decode in order"
    QCheck2.Gen.(list_size (gen 1 20) gen_varint_value)
    (fun values ->
      let b =
        Bytes.create
          (List.fold_left (fun n v -> n + Varint.encoded_length v) 0 values)
      in
      let stop = List.fold_left (Varint.write b) 0 values in
      let s = Bytes.to_string b in
      let pos = ref 0 in
      let rec decode_all acc =
        if !pos >= String.length s then List.rev acc
        else decode_all (Varint.read s pos :: acc)
      in
      stop = String.length s && decode_all [] = values)

let prop_varint_length_monotone =
  QCheck2.Test.make ~count:500 ~name:"varint length is monotone"
    QCheck2.Gen.(pair gen_varint_value gen_varint_value)
    (fun (a, b) ->
      let small = min a b and large = max a b in
      Varint.encoded_length small <= Varint.encoded_length large)

(* --- TCP wire --- *)

let gen_flags =
  QCheck2.Gen.oneofl
    (List.map Tcp_wire.flags_of_string [ "S"; "SA"; "A"; "AP"; "AF"; "R"; "AR"; "" ])

let gen_options =
  QCheck2.Gen.(
    list_size (gen 0 3)
      (oneof
         [
           map (fun v -> Tcp_wire.Mss v) (gen 0 65535);
           map (fun v -> Tcp_wire.Window_scale v) (gen 0 14);
           return Tcp_wire.Sack_permitted;
           map
             (fun (v, e) -> Tcp_wire.Timestamps { value = v; echo = e })
             (pair (gen 0 1000000) (gen 0 1000000));
         ]))

let gen_segment =
  QCheck2.Gen.(
    let* src_port = gen 0 65535 in
    let* dst_port = gen 0 65535 in
    let* seq = gen 0 0xFFFFFFFF in
    let* ack = gen 0 0xFFFFFFFF in
    let* flags = gen_flags in
    let* options = gen_options in
    let* payload = string_size ~gen:printable (gen 0 40) in
    return (Tcp_wire.make ~options ~payload ~src_port ~dst_port ~seq ~ack flags))

let prop_tcp_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"tcp segment roundtrip" gen_segment (fun seg ->
      match Tcp_wire.decode (Tcp_wire.encode seg) with
      | Error _ -> false
      | Ok seg' ->
          seg'.Tcp_wire.seq = seg.Tcp_wire.seq
          && seg'.Tcp_wire.ack = seg.Tcp_wire.ack
          && seg'.Tcp_wire.src_port = seg.Tcp_wire.src_port
          && seg'.Tcp_wire.dst_port = seg.Tcp_wire.dst_port
          && seg'.Tcp_wire.payload = seg.Tcp_wire.payload
          && seg'.Tcp_wire.options = seg.Tcp_wire.options
          && Tcp_wire.flags_to_string seg'.Tcp_wire.flags
             = Tcp_wire.flags_to_string seg.Tcp_wire.flags)

let prop_tcp_bitflip_detected =
  QCheck2.Test.make ~count:500 ~name:"tcp checksum detects any single-bit flip"
    QCheck2.Gen.(triple gen_segment (gen 0 1000) (gen 0 7))
    (fun (seg, pos, bit) ->
      let wire = Tcp_wire.encode seg in
      let pos = pos mod String.length wire in
      let flipped =
        String.mapi
          (fun i c -> if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
          wire
      in
      match Tcp_wire.decode flipped with Error _ -> true | Ok _ -> false)

(* --- QUIC frames --- *)

let gen_token = QCheck2.Gen.(string_size ~gen:printable (gen 0 20))

let gen_frame =
  (* Excludes PADDING: adjacent padding runs coalesce by design, so
     exact list roundtrip holds only without it (covered separately). *)
  QCheck2.Gen.(
    oneof
      [
        return Frame.Ping;
        map
          (fun (largest, delay, range) -> Frame.Ack { largest; delay; first_range = range })
          (triple (gen 0 10000) (gen 0 100) (gen 0 50));
        map
          (fun (id, err, size) ->
            Frame.Reset_stream { stream_id = id; error = err; final_size = size })
          (triple (gen 0 100) (gen 0 30) (gen 0 100000));
        map
          (fun (id, err) -> Frame.Stop_sending { stream_id = id; error = err })
          (pair (gen 0 100) (gen 0 30));
        map
          (fun (off, data) -> Frame.Crypto { offset = off; data })
          (pair (gen 0 1000) gen_token);
        map (fun t -> Frame.New_token t) gen_token;
        map
          (fun (id, off, data, fin) -> Frame.Stream { id; offset = off; data; fin })
          (quad (gen 0 60) (gen 0 1000) gen_token bool);
        map (fun v -> Frame.Max_data v) (gen 0 1000000);
        map
          (fun (id, m) -> Frame.Max_stream_data { stream_id = id; max = m })
          (pair (gen 0 100) (gen 0 1000000));
        map
          (fun (bidi, m) -> Frame.Max_streams { bidi; max = m })
          (pair bool (gen 0 1000));
        map (fun v -> Frame.Data_blocked v) (gen 0 100000);
        map
          (fun (id, m) -> Frame.Stream_data_blocked { stream_id = id; max = m })
          (pair (gen 0 100) (gen 0 100000));
        map
          (fun (bidi, m) -> Frame.Streams_blocked { bidi; max = m })
          (pair bool (gen 0 1000));
        map
          (fun (seq, cid) ->
            Frame.New_connection_id
              { seq; retire_prior = 0; cid; reset_token = String.make 16 'T' })
          (pair (gen 0 50) (string_size ~gen:printable (return 8)));
        map (fun seq -> Frame.Retire_connection_id seq) (gen 0 50);
        map (fun s -> Frame.Path_challenge s) (string_size ~gen:printable (return 8));
        map (fun s -> Frame.Path_response s) (string_size ~gen:printable (return 8));
        map
          (fun (err, reason, app) ->
            Frame.Connection_close { error = err; frame_type = 0; reason; app })
          (triple (gen 0 30) gen_token bool);
        return Frame.Handshake_done;
      ])

let prop_frames_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"frame lists roundtrip"
    QCheck2.Gen.(list_size (gen 0 10) gen_frame)
    (fun frames ->
      match Frame.decode_all (Frame.encode_all frames) with
      | Ok decoded -> decoded = frames
      | Error _ -> false)

let prop_padding_coalesces =
  QCheck2.Test.make ~count:200 ~name:"padding coalesces to one frame"
    (gen 1 30)
    (fun n ->
      match Frame.decode_all (Frame.encode_all [ Frame.Padding n ]) with
      | Ok [ Frame.Padding n' ] -> n' = max n 1
      | Ok _ | Error _ -> false)

(* --- QUIC packets --- *)

let fresh_crypto () =
  let c = Quic_crypto.create () in
  Quic_crypto.install_initial c ~dcid:"testcid0";
  Quic_crypto.install_handshake c ~client_random:"cr" ~server_random:"sr";
  c

let prop_packet_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"quic packets roundtrip under protection"
    QCheck2.Gen.(
      triple
        (oneofl [ Quic_packet.Initial; Quic_packet.Handshake; Quic_packet.Short ])
        (gen 0 100000)
        (list_size (gen 0 6) gen_frame))
    (fun (ptype, pn, frames) ->
      let crypto = fresh_crypto () in
      let dcid = "8bytecid" in
      let p = Quic_packet.make ptype ~dcid ~scid:"scid" ~pn ~frames in
      match Quic_packet.encode ~crypto ~sender:Quic_crypto.Client_to_server p with
      | None -> false
      | Some wire -> (
          match
            Quic_packet.decode ~crypto ~sender:Quic_crypto.Client_to_server
              ~reset_tokens:[] wire
          with
          | Quic_packet.Decoded p' ->
              p'.Quic_packet.ptype = ptype
              && p'.Quic_packet.pn = pn
              && p'.Quic_packet.frames = frames
          | Quic_packet.Reset_detected _ | Quic_packet.Undecodable _ -> false))

let prop_packet_bitflip_rejected =
  QCheck2.Test.make ~count:300 ~name:"quic packet protection detects tampering"
    QCheck2.Gen.(pair (gen 0 1000) (gen 0 7))
    (fun (pos, bit) ->
      let crypto = fresh_crypto () in
      let p =
        Quic_packet.make Quic_packet.Initial ~dcid:"8bytecid" ~scid:"scid" ~pn:3
          ~frames:[ Frame.Ping; Frame.Handshake_done ]
      in
      match Quic_packet.encode ~crypto ~sender:Quic_crypto.Client_to_server p with
      | None -> false
      | Some wire -> (
          let pos = pos mod String.length wire in
          let flipped =
            String.mapi
              (fun i c ->
                if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
              wire
          in
          if flipped = wire then true
          else
            match
              Quic_packet.decode ~crypto ~sender:Quic_crypto.Client_to_server
                ~reset_tokens:[] flipped
            with
            | Quic_packet.Decoded p' ->
                (* A header flip may still parse; the payload must not
                   silently change. *)
                p'.Quic_packet.frames = p.Quic_packet.frames
            | Quic_packet.Reset_detected _ | Quic_packet.Undecodable _ -> true))

(* --- crypto --- *)

let prop_crypto_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"seal/open roundtrip"
    QCheck2.Gen.(pair (string_size ~gen:printable (gen 0 100)) (gen 0 100000))
    (fun (plaintext, pn) ->
      let c = fresh_crypto () in
      match
        Quic_crypto.seal c Quic_crypto.Application_level
          Quic_crypto.Server_to_client ~pn ~header:"hd" plaintext
      with
      | None -> false
      | Some sealed ->
          Quic_crypto.open_ c Quic_crypto.Application_level
            Quic_crypto.Server_to_client ~pn ~header:"hd" sealed
          = Some plaintext)

let prop_crypto_pn_binding =
  QCheck2.Test.make ~count:200 ~name:"packet number is bound by the AEAD"
    QCheck2.Gen.(pair (gen 0 1000) (gen 0 1000))
    (fun (pn1, pn2) ->
      pn1 = pn2
      ||
      let c = fresh_crypto () in
      match
        Quic_crypto.seal c Quic_crypto.Initial_level Quic_crypto.Client_to_server
          ~pn:pn1 ~header:"h" "data"
      with
      | None -> false
      | Some sealed ->
          Quic_crypto.open_ c Quic_crypto.Initial_level
            Quic_crypto.Client_to_server ~pn:pn2 ~header:"h" sealed
          = None)

(* --- DTLS records --- *)

module Dtls_wire = Prognosis_dtls.Dtls_wire

let gen_dtls_handshake =
  QCheck2.Gen.(
    let* msg_type =
      oneofl
        Dtls_wire.
          [
            Client_hello; Server_hello; Hello_verify_request; Certificate;
            Server_hello_done; Client_key_exchange; Finished;
          ]
    in
    let* message_seq = gen 0 1000 in
    let* body = string_size ~gen:printable (gen 0 50) in
    return { Dtls_wire.msg_type; message_seq; body })

let prop_dtls_handshake_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"dtls handshake messages roundtrip"
    gen_dtls_handshake
    (fun h ->
      match Dtls_wire.decode_handshake (Dtls_wire.encode_handshake h) with
      | Ok h' -> h' = h
      | Error _ -> false)

let prop_dtls_record_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"dtls records roundtrip"
    QCheck2.Gen.(
      quad
        (oneofl
           Dtls_wire.[ Change_cipher_spec; Alert; Handshake; Application_data ])
        (gen 0 1) (gen 0 100000)
        (string_size ~gen:printable (gen 0 60)))
    (fun (content, epoch, seq, payload) ->
      let r = { Dtls_wire.content; epoch; seq; payload } in
      (* Plaintext roundtrip (no protection callbacks). *)
      match Dtls_wire.decode_record (Dtls_wire.encode_record r) with
      | Ok r' -> r' = r
      | Error _ -> false)

(* --- IPv4/UDP encapsulation --- *)

module Inet = Prognosis_sul.Inet

let prop_inet_udp_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"ipv4/udp wrap-unwrap roundtrip"
    QCheck2.Gen.(
      quad (gen 0 0xFFFF) (gen 1 65535) (gen 1 65535)
        (string_size ~gen:printable (gen 0 80)))
    (fun (addr_salt, src_port, dst_port, payload) ->
      let src = 0x0A000000 lor addr_salt and dst = 0x0B000000 lor addr_salt in
      match
        Inet.unwrap_udp (Inet.wrap_udp ~src ~dst ~src_port ~dst_port payload)
      with
      | Ok (port, payload') -> port = src_port && payload' = payload
      | Error _ -> false)

let prop_inet_bitflip_detected =
  QCheck2.Test.make ~count:300 ~name:"ipv4/udp single-bit flips are detected"
    QCheck2.Gen.(triple (gen 0 1000) (gen 0 7) (string_size ~gen:printable (gen 1 40)))
    (fun (pos, bit, payload) ->
      let wire = Inet.wrap_udp ~src:1 ~dst:2 ~src_port:3 ~dst_port:4 payload in
      let pos = pos mod String.length wire in
      let flipped =
        String.mapi
          (fun i c -> if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
          wire
      in
      match Inet.unwrap_udp flipped with
      | Error _ -> true
      | Ok (port, payload') ->
          (* The flip may hit padding-free fields we do not check (TTL);
             accept only when the delivered data is untouched. *)
          port = 3 && payload' = payload)

(* --- learning pipeline over random machines, 3-symbol alphabet --- *)

let gen_mealy3 =
  QCheck2.Gen.(
    let* size = gen 1 5 in
    let* delta = array_size (return size) (array_size (return 3) (gen 0 (size - 1))) in
    let* lambda = array_size (return size) (array_size (return 3) (gen 0 2)) in
    return (Mealy.make ~size ~initial:0 ~inputs:[| 'a'; 'b'; 'c' |] ~delta ~lambda))

let prop_learners_agree_3sym =
  QCheck2.Test.make ~count:40 ~name:"learners agree on 3-symbol machines"
    gen_mealy3
    (fun target ->
      let mq () = Oracle.of_sul (Sul.of_mealy target) in
      let eq = Eq_oracle.against target in
      let m1, _ = Lstar.learn ~inputs:(Mealy.inputs target) ~mq:(mq ()) ~eq () in
      let m2, _ = Ttt.learn ~inputs:(Mealy.inputs target) ~mq:(mq ()) ~eq () in
      Mealy.equivalent m1 m2 = None && Mealy.equivalent m1 target = None)

let prop_w_method_kills_output_mutants =
  QCheck2.Test.make ~count:60 ~name:"w-method suites kill single-output mutants"
    QCheck2.Gen.(triple gen_mealy3 (gen 0 100) (gen 0 2))
    (fun (m, spos, i) ->
      let size = Mealy.size m in
      let s = spos mod size in
      (* Mutant: flip one output to a fresh symbol. *)
      let mutant =
        Mealy.of_fun ~size ~initial:(Mealy.initial m) ~inputs:(Mealy.inputs m)
          ~step:(fun q x ->
            let q', o = Mealy.step m q x in
            if q = s && x = (Mealy.inputs m).(i) then (q', 99) else (q', o))
      in
      (* The mutated transition may be unreachable; only demand a kill
         when the machines genuinely differ. *)
      match Mealy.equivalent m mutant with
      | None -> true
      | Some _ ->
          (* The W-method guarantee covers implementations with at most
             |spec| + extra states; the (unminimized) mutant may have up
             to |m| states while the minimized spec has fewer. *)
          let spec = Mealy.minimize m in
          let extra_states = Mealy.size m - Mealy.size spec in
          let suite =
            List.map (Mealy.decode spec) (Testing.w_method ~extra_states spec)
          in
          List.exists (fun w -> Mealy.run m w <> Mealy.run mutant w) suite)

let prop_minimize_fixpoint =
  QCheck2.Test.make ~count:100 ~name:"minimize is a fixpoint" gen_mealy3 (fun m ->
      let m1 = Mealy.minimize m in
      let m2 = Mealy.minimize m1 in
      Mealy.size m1 = Mealy.size m2 && Mealy.equivalent m1 m2 = None)

let () =
  Alcotest.run "properties"
    [
      ( "varint",
        List.map QCheck_alcotest.to_alcotest
          [ prop_varint_roundtrip; prop_varint_sequence; prop_varint_length_monotone ] );
      ( "tcp-wire",
        List.map QCheck_alcotest.to_alcotest
          [ prop_tcp_roundtrip; prop_tcp_bitflip_detected ] );
      ( "quic-frames",
        List.map QCheck_alcotest.to_alcotest
          [ prop_frames_roundtrip; prop_padding_coalesces ] );
      ( "quic-packets",
        List.map QCheck_alcotest.to_alcotest
          [ prop_packet_roundtrip; prop_packet_bitflip_rejected ] );
      ( "crypto",
        List.map QCheck_alcotest.to_alcotest
          [ prop_crypto_roundtrip; prop_crypto_pn_binding ] );
      ( "dtls-wire",
        List.map QCheck_alcotest.to_alcotest
          [ prop_dtls_handshake_roundtrip; prop_dtls_record_roundtrip ] );
      ( "inet",
        List.map QCheck_alcotest.to_alcotest
          [ prop_inet_udp_roundtrip; prop_inet_bitflip_detected ] );
      ( "learning",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_learners_agree_3sym;
            prop_w_method_kills_output_mutants;
            prop_minimize_fixpoint;
          ] );
    ]
