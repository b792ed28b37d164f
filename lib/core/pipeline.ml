(* Instance [instance] performs Phase-1 hop h (1-based) in round
   instance + h - 1 and Phase 2 in round instance + hops. *)
let cell ~hops ~instance ~round =
  let offset = round - instance in
  if offset < 0 || offset > hops then ".    "
  else if offset = hops then "P2   "
  else Printf.sprintf "H%-4d" (offset + 1)

let render ~q ~hops =
  if q < 1 || hops < 1 then invalid_arg "Pipeline.render";
  let buf = Buffer.create 256 in
  let total = q + hops in
  Buffer.add_string buf "round    ";
  for r = 1 to total do
    Buffer.add_string buf (Printf.sprintf "%-5d" r)
  done;
  Buffer.add_char buf '\n';
  for i = 1 to q do
    Buffer.add_string buf (Printf.sprintf "inst %-3d " i);
    for r = 1 to total do
      Buffer.add_string buf (cell ~hops ~instance:i ~round:r)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
