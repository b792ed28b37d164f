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

(* One node's agreed claims by (proto, src, dst, dir). The first claim of
   a key wins, as a walk down the claim list would find it. *)
module Index = Hashtbl.Make (struct
  type t = string * int * int * Wire.dir

  let equal (p, s, d, r) (p', s', d', r') =
    Int.equal s s' && Int.equal d d' && r = r' && String.equal p p'

  let hash = Hashtbl.hash
end)

let index_claims claims =
  let idx = Index.create 16 in
  List.iter
    (fun (c : Wire.claim) ->
      let key = (c.c_phase, c.c_src, c.c_dst, c.c_dir) in
      if not (Index.mem idx key) then Index.add idx key c.c_body)
    claims;
  idx

let find_claim idx ~proto ~src ~dst ~dir = Index.find_opt idx (proto, src, dst, dir)

(* The sends the protocol prescribes for node v, derived from its claimed
   receptions (its claim index [idx]) and, for the source, the agreed
   input: the deterministic replay of DC3. Returns (proto, dst, payload)
   triples and v's value as symbols. *)
let expected_sends ctx ~trees ~protos ~sizes ~idx ~agreed_input v =
  let n_trees = Array.length trees in
  let received =
    Array.init n_trees (fun t ->
        match Arborescence.parent trees.(t) v with
        | None -> None (* v is the root *)
        | Some parent ->
            find_claim idx ~proto:protos.(t) ~src:parent ~dst:v ~dir:Wire.Received)
  in
  let slices =
    if v = ctx.source then
      Array.of_list
        (List.map Phase1.slice_payload
           (Bitvec.split_balanced agreed_input ~parts:n_trees))
    else
      Array.init n_trees (fun t ->
          Phase1.expected_forward ~slice_bits:sizes.(t) ~received:received.(t))
  in
  let p1_sends =
    List.concat
      (List.init n_trees (fun t ->
           List.map
             (fun child -> (protos.(t), child, slices.(t)))
             (Arborescence.children trees.(t) v)))
  in
  (* The node's value x_v, then its equality-check sends. *)
  let x_value =
    if v = ctx.source then agreed_input else Phase1.assemble ~slice_sizes:sizes received
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
  let vs = Array.of_list (Digraph.vertices ctx.gk) in
  let parsed = Array.map claims vs in
  let index = Array.map index_claims parsed in
  let index_of v = index.(Vset.position vs v) in
  let disputes = ref [] in
  let add_dispute a b =
    let d = Params.norm_dispute a b in
    if not (List.mem d !disputes) then disputes := d :: !disputes
  in
  (* DC2: cross-compare sent vs received claims over every claimed key on
     adjacent pairs — a key (proto, a, b) is claimed when a's or b's
     claims hold it. An honest pair's claims always match (both drawn from
     the same delivery trace), so any mismatch implicates the pair. *)
  let claimed = Hashtbl.create 64 in
  Array.iteri
    (fun i x ->
      List.iter
        (fun (c : Wire.claim) ->
          let a = c.c_src and b = c.c_dst in
          let key = (c.c_phase, a, b) in
          if
            (a = x || b = x)
            && Digraph.mem_edge ctx.gk a b
            && not (Hashtbl.mem claimed key)
          then begin
            Hashtbl.add claimed key ();
            let sent =
              find_claim (index_of a) ~proto:c.c_phase ~src:a ~dst:b ~dir:Wire.Sent
            in
            let recv =
              find_claim (index_of b) ~proto:c.c_phase ~src:a ~dst:b ~dir:Wire.Received
            in
            match (sent, recv) with
            | Some s, Some r -> if not (Wire.equal s r) then add_dispute a b
            | Some _, None | None, Some _ -> add_dispute a b
            | None, None -> ()
          end)
        parsed.(i))
    vs;
  (* DC3: deterministic replay of each node against its own claims. *)
  let trees = Array.of_list ctx.trees in
  let protos = Array.init (Array.length trees) Phase1.tree_proto in
  let sizes = Phase1.slice_sizes ~value_bits:ctx.value_bits ~trees:(Array.length trees) in
  let provably_faulty = ref Vset.empty in
  Array.iteri
    (fun i v ->
      let idx = index.(i) in
      let expected, x = expected_sends ctx ~trees ~protos ~sizes ~idx ~agreed_input v in
      let prescribed = Hashtbl.create 16 in
      List.iter
        (fun (proto, dst, _) -> Hashtbl.replace prescribed (proto, dst) ())
        expected;
      let consistent_sends =
        List.for_all
          (fun (proto, dst, payload) ->
            match find_claim idx ~proto ~src:v ~dst ~dir:Wire.Sent with
            | Some claimed -> Wire.equal claimed payload
            | None -> false)
          expected
        && List.for_all
             (fun (c : Wire.claim) ->
               c.c_dir <> Wire.Sent || c.c_src <> v
               || Hashtbl.mem prescribed (c.c_phase, c.c_dst))
             parsed.(i)
      in
      (* Flag consistency: replay the equality check on claimed receptions. *)
      let expected_flag =
        Equality_check.expected_flag ctx.coding ~graph:ctx.gk ~me:v ~x
          ~received:(fun ~src ->
            find_claim idx ~proto:Equality_check.proto ~src ~dst:v ~dir:Wire.Received)
      in
      let announced_flag =
        match List.assoc_opt v ctx.flags with Some b -> b | None -> false
      in
      if (not consistent_sends) || expected_flag <> announced_flag then
        provably_faulty := Vset.add v !provably_faulty)
    vs;
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
  (* A verdict is a function of the vantage's agreed view alone, and
     agreement makes every honest vantage's view the same: analyse each
     distinct view once. *)
  let same_view = List.equal (fun a b -> a == b || Wire.equal a b) in
  let analysed = ref [] in
  let verdicts =
    List.map
      (fun me ->
        let agreed v =
          match Hashtbl.find_opt decisions (v, me) with
          | Some p -> p
          | None -> Wire.Claims []
        in
        let view = List.map agreed verts in
        match List.find_opt (fun (seen, _) -> same_view seen view) !analysed with
        | Some (_, verdict) -> (me, verdict)
        | None ->
            let claims v = parse_claims (agreed v) in
            let agreed_input = parse_input ~value_bits:ctx.value_bits (agreed ctx.source) in
            let verdict = analyse ~ctx ~claims ~agreed_input in
            analysed := (view, verdict) :: !analysed;
            (me, verdict))
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
