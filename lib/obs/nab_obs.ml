(* Zero-dependency tracing/metrics core. Everything here is stdlib-only so
   every layer (net, util, core, bin, bench) can depend on it. *)

(* ---------- JSON ---------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let float x =
    if Float.is_finite x then Float x
    else if Float.is_nan x then Str "nan"
    else if x > 0.0 then Str "inf"
    else Str "-inf"

  (* Shortest decimal representation that parses back to the same float:
     artifacts stay lossless and byte-deterministic. *)
  let float_repr x =
    if Float.is_integer x && Float.abs x < 1e16 then Printf.sprintf "%.1f" x
    else
      let s = Printf.sprintf "%.15g" x in
      if float_of_string s = x then s else Printf.sprintf "%.17g" x

  let escape buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec to_buffer buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x ->
        if Float.is_finite x then Buffer.add_string buf (float_repr x)
        else to_buffer buf (float x)
    | Str s -> escape buf s
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            to_buffer buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape buf k;
            Buffer.add_char buf ':';
            to_buffer buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    to_buffer buf t;
    Buffer.contents buf

  (* Strict recursive-descent parser. *)
  exception Parse of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                let hex = String.sub s (!pos + 1) 4 in
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some c -> c
                  | None -> fail "bad \\u escape"
                in
                pos := !pos + 4;
                (* Only BMP code points below 0x80 appear in our artifacts;
                   encode the rest as UTF-8 for completeness. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end
            | c -> fail (Printf.sprintf "bad escape \\%c" c));
            advance ();
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      let integral =
        not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok)
      in
      if integral then
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> fail "bad integer"
      else
        match float_of_string_opt tok with
        | Some x -> Float x
        | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            List (elements [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected %C" c)
      | None -> fail "unexpected end of input"
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse msg -> Error msg

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None

  let get_int = function Int i -> Some i | _ -> None

  let get_float = function
    | Float x -> Some x
    | Int i -> Some (float_of_int i)
    | Str "inf" -> Some infinity
    | Str "-inf" -> Some neg_infinity
    | Str "nan" -> Some Float.nan
    | _ -> None

  let get_string = function Str s -> Some s | _ -> None
  let get_bool = function Bool b -> Some b | _ -> None
  let get_list = function List xs -> Some xs | _ -> None
end

(* ---------- events and metrics ---------- *)

type value = I of int | F of float | S of string | B of bool
type span = Begin | End | Point

type event = {
  seq : int;
  t : float;
  scope : string;
  ev : span;
  name : string;
  attrs : (string * value) list;
}

type kind = Counter | Gauge

type metric = {
  m_name : string;
  m_kind : kind;
  m_count : int;
  m_sum : float;
  m_min : float;
  m_max : float;
  m_last : float;
}

let value_to_json = function
  | I i -> Json.Int i
  | F x -> Json.float x
  | S s -> Json.Str s
  | B b -> Json.Bool b

let span_label = function Begin -> "begin" | End -> "end" | Point -> "point"

let event_to_json e =
  let base =
    [
      ("seq", Json.Int e.seq);
      ("t", Json.float e.t);
      ("scope", Json.Str e.scope);
      ("ev", Json.Str (span_label e.ev));
      ("name", Json.Str e.name);
    ]
  in
  let attrs =
    match e.attrs with
    | [] -> []
    | kvs -> [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) kvs)) ]
  in
  Json.Obj (base @ attrs)

(* ---------- sinks ---------- *)

type sink = {
  sink_event : event -> unit;
  sink_metrics : metric list -> unit;
  sink_close : unit -> unit;
}

let null_sink =
  { sink_event = ignore; sink_metrics = ignore; sink_close = ignore }

let jsonl_writer add_string flush =
  let buf = Buffer.create 256 in
  {
    sink_event =
      (fun e ->
        Buffer.clear buf;
        Json.to_buffer buf (event_to_json e);
        Buffer.add_char buf '\n';
        add_string (Buffer.contents buf));
    sink_metrics = ignore;
    sink_close = flush;
  }

let jsonl_sink oc = jsonl_writer (output_string oc) (fun () -> flush oc)
let buffer_jsonl_sink buf = jsonl_writer (Buffer.add_string buf) ignore

let kind_label = function Counter -> "counter" | Gauge -> "gauge"

let csv_of_metrics ms =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "name,kind,count,sum,min,max,last\n";
  List.iter
    (fun m ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d,%s,%s,%s,%s\n" m.m_name (kind_label m.m_kind)
           m.m_count (Json.float_repr m.m_sum) (Json.float_repr m.m_min)
           (Json.float_repr m.m_max) (Json.float_repr m.m_last)))
    ms;
  Buffer.contents buf

let csv_sink oc =
  {
    sink_event = ignore;
    sink_metrics = (fun ms -> output_string oc (csv_of_metrics ms));
    sink_close = (fun () -> flush oc);
  }

let buffer_csv_sink buf =
  {
    sink_event = ignore;
    sink_metrics = (fun ms -> Buffer.add_string buf (csv_of_metrics ms));
    sink_close = ignore;
  }

(* ---------- context ---------- *)

type acc = {
  a_kind : kind;
  mutable a_count : int;
  mutable a_sum : float;
  mutable a_min : float;
  mutable a_max : float;
  mutable a_last : float;
}

type ctx = {
  on : bool;
  lock : Mutex.t;
  mutable seq : int;
  mutable closed : bool;
  sinks : sink list;
  table : (string, acc) Hashtbl.t;
  samples : int;
}

let null =
  {
    on = false;
    lock = Mutex.create ();
    seq = 0;
    closed = false;
    sinks = [];
    table = Hashtbl.create 1;
    samples = 0;
  }

let make ?(sample_messages = 0) sinks =
  {
    on = true;
    lock = Mutex.create ();
    seq = 0;
    closed = false;
    sinks;
    table = Hashtbl.create 32;
    samples = max 0 sample_messages;
  }

let enabled c = c.on
let sample_messages c = c.samples

let emit c ev ~scope ?(t = 0.0) ?(attrs = []) name =
  if c.on then begin
    Mutex.lock c.lock;
    let e = { seq = c.seq; t; scope; ev; name; attrs } in
    c.seq <- c.seq + 1;
    List.iter (fun s -> s.sink_event e) c.sinks;
    Mutex.unlock c.lock
  end

let span_begin c ~scope ?t ?attrs name = emit c Begin ~scope ?t ?attrs name
let span_end c ~scope ?t ?attrs name = emit c End ~scope ?t ?attrs name
let point c ~scope ?t ?attrs name = emit c Point ~scope ?t ?attrs name

let record c kind name v =
  if c.on then begin
    Mutex.lock c.lock;
    (match Hashtbl.find_opt c.table name with
    | Some a ->
        a.a_count <- a.a_count + 1;
        a.a_sum <- a.a_sum +. v;
        a.a_min <- Float.min a.a_min v;
        a.a_max <- Float.max a.a_max v;
        a.a_last <- v
    | None ->
        Hashtbl.add c.table name
          { a_kind = kind; a_count = 1; a_sum = v; a_min = v; a_max = v; a_last = v });
    Mutex.unlock c.lock
  end

let add c name n = record c Counter name (float_of_int n)
let gauge c name v = record c Gauge name v

let metrics c =
  if not c.on then []
  else begin
    Mutex.lock c.lock;
    let ms =
      Hashtbl.fold
        (fun name a l ->
          {
            m_name = name;
            m_kind = a.a_kind;
            m_count = a.a_count;
            m_sum = a.a_sum;
            m_min = a.a_min;
            m_max = a.a_max;
            m_last = a.a_last;
          }
          :: l)
        c.table []
    in
    Mutex.unlock c.lock;
    List.sort (fun a b -> compare a.m_name b.m_name) ms
  end

let close c =
  if c.on then begin
    Mutex.lock c.lock;
    let already = c.closed in
    c.closed <- true;
    Mutex.unlock c.lock;
    if not already then begin
      let ms = metrics c in
      List.iter (fun s -> s.sink_metrics ms) c.sinks;
      List.iter (fun s -> s.sink_close ()) c.sinks
    end
  end
