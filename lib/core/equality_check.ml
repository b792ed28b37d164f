open Nab_graph
open Nab_net

let proto = "ec"

type adversary = me:int -> dst:int -> int array -> int array

let honest ~me:_ ~dst:_ y = y

let send coding ~faulty ~adversary ~me ~dst x =
  let y = Coding.encode coding ~edge:(me, dst) x in
  let y = if Vset.mem me faulty then adversary ~me ~dst y else y in
  Wire.Coded { sym_bits = Nab_field.Gf2p.degree (Coding.field coding); data = y }

let expected_send coding ~edge:(me, dst) ~x =
  send coding ~faulty:Vset.empty ~adversary:honest ~me ~dst x

let payload_symbols ~sym_bits = function
  | Some (Wire.Coded { sym_bits = sb; data }) when sb = sym_bits -> Some data
  | Some _ | None -> None

let expected_flag coding ~graph ~me ~x ~received =
  let sym_bits = Nab_field.Gf2p.degree (Coding.field coding) in
  List.exists
    (fun (src, _) ->
      match payload_symbols ~sym_bits (received ~src) with
      | None -> true (* missing or malformed = default value = mismatch *)
      | Some data -> not (Coding.check coding ~edge:(src, me) ~x ~received:data))
    (Digraph.in_edges graph me)

let run ~net ~graph:g ~phase ~coding ~values ~faulty ?(adversary = honest) () =
  let verts = Digraph.vertices g in
  let obs = Transport.obs net in
  if Nab_obs.enabled obs then
    Nab_obs.span_begin obs ~scope:"proto" ~t:(Transport.timing net).Transport.wall
      ~attrs:
        [
          ("phase", Nab_obs.S phase);
          ("rho", Nab_obs.I (Coding.rho coding));
          ("m", Nab_obs.I (Nab_field.Gf2p.degree (Coding.field coding)));
        ]
      "equality-check";
  let outbox v =
    List.map
      (fun (dst, _) ->
        ( dst,
          Packet.direct ~proto ~origin:v ~dst
            (send coding ~faulty ~adversary ~me:v ~dst (values v)) ))
      (Digraph.out_edges g v)
  in
  let inbox = Transport.round net ~phase outbox in
  let flags =
    List.map
      (fun v ->
        let received ~src =
          List.find_map
            (fun (s, (pkt : Packet.t)) ->
              if s = src && pkt.proto = proto then Some pkt.payload else None)
            (inbox v)
        in
        (v, expected_flag coding ~graph:g ~me:v ~x:(values v) ~received))
      verts
  in
  if Nab_obs.enabled obs then begin
    let mismatches = List.length (List.filter snd flags) in
    Nab_obs.add obs "ec.mismatch_flags" mismatches;
    Nab_obs.span_end obs ~scope:"proto" ~t:(Transport.timing net).Transport.wall
      ~attrs:[ ("mismatch_flags", Nab_obs.I mismatches) ]
      "equality-check"
  end;
  flags
