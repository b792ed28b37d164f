(* Dispute control as it was before [run] analysed each distinct agreed
   view once and [analyse] indexed the claims: one [analyse] per vantage,
   every claim lookup a walk of the node's claim list. Kept verbatim below
   the [open]s as the reference lib/core/dispute.ml must match: the same
   verdict for every vantage. test/test_protocol.ml runs both side by
   side. *)

open Nab_core

open Nab_graph
open Nab_net
open Nab_classic

type ctx = {
  gk : Digraph.t;
  total_n : int;
  f : int;
  source : int;
  trees : Arborescence.tree list;
  coding : Coding.t;
  value_bits : int;
  flags : (int * bool) list;
}

type verdict = {
  output : Bitvec.t;
  new_disputes : Params.dispute list;
  provably_faulty : Vset.t;
}

let honest_claims net ~net_phases ~me =
  List.concat_map
    (fun phase ->
      List.filter_map
        (fun (e : Transport.event) ->
          let claim dir =
            {
              Wire.c_phase = e.msg.Packet.proto;
              c_round = 0;
              c_src = e.src;
              c_dst = e.dst;
              c_dir = dir;
              c_body = e.msg.Packet.payload;
            }
          in
          if e.src = me then Some (claim Wire.Sent)
          else if e.dst = me then Some (claim Wire.Received)
          else None)
        (Transport.events_of_phase net phase))
    net_phases

type claims_adversary = me:int -> Wire.claim list -> Wire.claim list

let honest_claims_adv ~me:_ claims = claims

(* ---------- the pure DC2-DC3 analysis ---------- *)

let find_claim claims ~proto ~src ~dst ~dir =
  List.find_map
    (fun (c : Wire.claim) ->
      if c.c_phase = proto && c.c_src = src && c.c_dst = dst && c.c_dir = dir then
        Some c.c_body
      else None)
    claims

let slice_sizes_of ctx =
  Phase1.slice_sizes ~value_bits:ctx.value_bits ~trees:(List.length ctx.trees)

(* The sends the protocol prescribes for node v, derived from its claimed
   receptions and (for the source) the agreed input: the deterministic
   replay of DC3. Returns (proto, dst, payload) triples. *)
let expected_sends ctx ~claims_of ~agreed_input v =
  let sizes = slice_sizes_of ctx in
  let claims = claims_of v in
  let received_on_tree t =
    match Arborescence.parent (List.nth ctx.trees t) v with
    | None -> None (* v is the root *)
    | Some parent ->
        find_claim claims ~proto:(Phase1.tree_proto t) ~src:parent ~dst:v
          ~dir:Wire.Received
  in
  let slices =
    if v = ctx.source then
      Array.of_list
        (List.map Phase1.slice_payload
           (Bitvec.split_balanced agreed_input ~parts:(List.length ctx.trees)))
    else
      Array.init (List.length ctx.trees) (fun t ->
          Phase1.expected_forward ~slice_bits:sizes.(t) ~received:(received_on_tree t))
  in
  let p1_sends =
    List.concat
      (List.mapi
         (fun t tree ->
           List.map
             (fun child -> (Phase1.tree_proto t, child, slices.(t)))
             (Arborescence.children tree v))
         ctx.trees)
  in
  (* The node's value x_v, then its equality-check sends. *)
  let x_value =
    if v = ctx.source then agreed_input
    else
      Phase1.assemble ~slice_sizes:sizes
        (Array.init (List.length ctx.trees) (fun t -> received_on_tree t))
  in
  let sym_bits = Nab_field.Gf2p.degree (Coding.field ctx.coding) in
  let x = Bitvec.to_symbols x_value ~sym_bits in
  let ec_sends =
    List.map
      (fun (dst, _) ->
        (Equality_check.proto, dst, Equality_check.expected_send ctx.coding ~edge:(v, dst) ~x))
      (Digraph.out_edges ctx.gk v)
  in
  (p1_sends @ ec_sends, x)

let analyse ~ctx ~claims ~agreed_input =
  let verts = Digraph.vertices ctx.gk in
  let disputes = ref [] in
  let add_dispute a b =
    let d = Params.norm_dispute a b in
    if not (List.mem d !disputes) then disputes := d :: !disputes
  in
  (* DC2: cross-compare sent vs received claims over every claimed key on
     adjacent pairs. An honest pair's claims always match (both drawn from
     the same delivery trace), so any mismatch implicates the pair. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Digraph.mem_edge ctx.gk a b then begin
            let keys =
              List.sort_uniq compare
                (List.filter_map
                   (fun (c : Wire.claim) ->
                     if c.c_src = a && c.c_dst = b then Some c.c_phase else None)
                   (claims a @ claims b))
            in
            List.iter
              (fun proto ->
                let sent = find_claim (claims a) ~proto ~src:a ~dst:b ~dir:Wire.Sent in
                let recv = find_claim (claims b) ~proto ~src:a ~dst:b ~dir:Wire.Received in
                match (sent, recv) with
                | Some s, Some r -> if not (Wire.equal s r) then add_dispute a b
                | Some _, None | None, Some _ -> add_dispute a b
                | None, None -> ())
              keys
          end)
        verts)
    verts;
  (* DC3: deterministic replay of each node against its own claims. *)
  let provably_faulty = ref Vset.empty in
  List.iter
    (fun v ->
      let expected, x = expected_sends ctx ~claims_of:claims ~agreed_input v in
      let v_claims = claims v in
      let claimed_sends =
        List.filter (fun (c : Wire.claim) -> c.c_dir = Wire.Sent && c.c_src = v) v_claims
      in
      let consistent_sends =
        List.for_all
          (fun (proto, dst, payload) ->
            match find_claim v_claims ~proto ~src:v ~dst ~dir:Wire.Sent with
            | Some claimed -> Wire.equal claimed payload
            | None -> false)
          expected
        && List.for_all
             (fun (c : Wire.claim) ->
               List.exists
                 (fun (proto, dst, _) -> c.c_phase = proto && c.c_dst = dst)
                 expected)
             claimed_sends
      in
      (* Flag consistency: replay the equality check on claimed receptions. *)
      let expected_flag =
        Equality_check.expected_flag ctx.coding ~graph:ctx.gk ~me:v ~x
          ~received:(fun ~src ->
            find_claim v_claims ~proto:Equality_check.proto ~src ~dst:v
              ~dir:Wire.Received)
      in
      let announced_flag =
        match List.assoc_opt v ctx.flags with Some b -> b | None -> false
      in
      if (not consistent_sends) || expected_flag <> announced_flag then
        provably_faulty := Vset.add v !provably_faulty)
    verts;
  (* Provably faulty nodes are deemed in dispute with all their neighbours. *)
  Vset.iter
    (fun p -> List.iter (fun nbr -> add_dispute p nbr) (Digraph.neighbors ctx.gk p))
    !provably_faulty;
  {
    output = agreed_input;
    new_disputes = List.sort compare !disputes;
    provably_faulty = !provably_faulty;
  }

(* ---------- the broadcast wrapper ---------- *)

let parse_claims = function
  | Wire.Claims cs -> cs
  | Wire.Batch items ->
      List.concat_map (function Wire.Claims cs -> cs | _ -> []) items
  | _ -> []

let parse_input ~value_bits payload =
  let from_value = function
    | Wire.Value { bits; data }
      when bits = value_bits && Array.length data = (bits + 7) / 8 ->
        Some (Bitvec.slice (Bitvec.of_symbols ~sym_bits:8 data) ~pos:0 ~len:bits)
    | _ -> None
  in
  let candidates =
    match payload with Wire.Batch items -> items | p -> [ p ]
  in
  match List.find_map from_value candidates with
  | Some bv -> bv
  | None -> Bitvec.create value_bits

let run ~net ~routing ~ctx ~faulty ~true_input ?(claims_adv = honest_claims_adv)
    ?claims_of ?input_adv ?eig_adv () =
  let verts = Digraph.vertices ctx.gk in
  let obs = Transport.obs net in
  if Nab_obs.enabled obs then
    Nab_obs.span_begin obs ~scope:"proto" ~t:(Transport.timing net).Transport.wall
      ~attrs:
        [ ("nodes", Nab_obs.I (List.length verts)); ("f", Nab_obs.I ctx.f) ]
      "dispute-control";
  let truthful_claims =
    match claims_of with
    | Some f -> f
    | None ->
        fun me -> honest_claims net ~net_phases:[ "phase1"; "equality-check" ] ~me
  in
  let my_claims v =
    let honest = truthful_claims v in
    if Vset.mem v faulty then claims_adv ~me:v honest else honest
  in
  let input_payload =
    let value =
      if Vset.mem ctx.source faulty then
        match input_adv with Some f -> f true_input | None -> true_input
      else true_input
    in
    Phase1.slice_payload value
  in
  let inputs =
    List.map
      (fun v ->
        let claims_payload = Wire.Claims (my_claims v) in
        if v = ctx.source then (v, Wire.Batch [ claims_payload; input_payload ])
        else (v, claims_payload))
      verts
  in
  let decisions =
    Eig.broadcast_all ~net ~nodes:verts ~phase:"dispute-control" ~routing ~f:ctx.f
      ~inputs ~default:(Wire.Claims []) ~faulty ?adversary:eig_adv ()
  in
  let verdicts =
    List.map
      (fun me ->
        let agreed v =
          match Hashtbl.find_opt decisions (v, me) with
          | Some p -> p
          | None -> Wire.Claims []
        in
        let claims v = parse_claims (agreed v) in
        let agreed_input = parse_input ~value_bits:ctx.value_bits (agreed ctx.source) in
        (me, analyse ~ctx ~claims ~agreed_input))
      verts
  in
  if Nab_obs.enabled obs then begin
    let disputes, faulty_found =
      match verdicts with
      | (_, v) :: _ -> (List.length v.new_disputes, Vset.cardinal v.provably_faulty)
      | [] -> (0, 0)
    in
    Nab_obs.span_end obs ~scope:"proto" ~t:(Transport.timing net).Transport.wall
      ~attrs:
        [
          ("new_disputes", Nab_obs.I disputes);
          ("provably_faulty", Nab_obs.I faulty_found);
        ]
      "dispute-control"
  end;
  verdicts
