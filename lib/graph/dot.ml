let edge_attrs highlight u v cap =
  let hl = List.mem (u, v) highlight || List.mem (v, u) highlight in
  if hl then Printf.sprintf "[label=\"%d\", color=red, penwidth=2.0]" cap
  else Printf.sprintf "[label=\"%d\"]" cap

let of_digraph ?(name = "G") ?(highlight = []) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  List.iter (fun v -> Buffer.add_string buf (Printf.sprintf "  %d;\n" v)) (Digraph.vertices g);
  List.iter
    (fun (u, v, c) ->
      Buffer.add_string buf (Printf.sprintf "  %d -> %d %s;\n" u v (edge_attrs highlight u v c)))
    (Digraph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
