open Nab_graph

type t = { tbl : (int * int, int list list) Hashtbl.t; max_len : int }

let build g ~f =
  let tbl = Hashtbl.create 64 in
  let verts = Digraph.vertices g in
  let max_len = ref 1 in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then begin
            let routes =
              if Digraph.mem_edge g src dst then [ [ src; dst ] ]
              else begin
                let paths = Connectivity.disjoint_paths g ~src ~dst in
                let need = (2 * f) + 1 in
                if List.length paths < need then
                  invalid_arg
                    (Printf.sprintf
                       "Routing.build: only %d node-disjoint paths %d->%d (need %d)"
                       (List.length paths) src dst need)
                else begin
                  (* Prefer short paths for the majority set. *)
                  let sorted =
                    List.sort (fun a b -> compare (List.length a) (List.length b)) paths
                  in
                  List.filteri (fun i _ -> i < need) sorted
                end
              end
            in
            List.iter (fun p -> max_len := max !max_len (List.length p - 1)) routes;
            Hashtbl.replace tbl (src, dst) routes
          end)
        verts)
    verts;
  { tbl; max_len = !max_len }

let paths t ~src ~dst =
  match Hashtbl.find_opt t.tbl (src, dst) with Some ps -> ps | None -> []

let max_path_len t = t.max_len

let is_route t ~src ~dst route =
  List.exists (List.equal Int.equal route) (paths t ~src ~dst)
