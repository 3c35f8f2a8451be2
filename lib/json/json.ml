type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of { items : t list; mutable size : int }
  | Obj of { fields : (string * t) list; mutable size : int; mutable index : index }

(* An object's name index, built by the first lookup that passes
   [index_after] fields without finding its name. It maps each name to
   its first binding. *)
and index = Unindexed | Indexed of (string, t) Hashtbl.t

(* A container's [size] until the size model or the printer measures it. *)
let unknown = -1

let index_after = 64

let null = Null
let bool b = Bool b
let int i = Int i
let float f = Float f
let string s = String s
let list items = List { items; size = unknown }
let obj fields = Obj { fields; size = unknown; index = Unindexed }
let strings l = list (List.map string l)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | String x, String y -> String.equal x y
  | List x, List y -> List.equal equal x.items y.items
  | Obj x, Obj y ->
    List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x.fields y.fields
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Obj _), _ -> false

let tag = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | String _ -> 4
  | List _ -> 5
  | Obj _ -> 6

let rec compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Stdlib.compare x y
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | String x, String y -> String.compare x y
  | List x, List y -> List.compare compare x.items y.items
  | Obj x, Obj y ->
    List.compare
      (fun (k1, v1) (k2, v2) ->
        let c = String.compare k1 k2 in
        if c <> 0 then c else compare v1 v2)
      x.fields y.fields
  | _, _ -> Stdlib.compare (tag a) (tag b)

exception Type_error of string

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "list"
  | Obj _ -> "object"

let type_error expected v =
  raise (Type_error (Printf.sprintf "expected %s, got %s" expected (type_name v)))

let to_bool = function Bool b -> b | v -> type_error "bool" v
let to_int = function Int i -> i | v -> type_error "int" v

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> type_error "float" v

let to_string_v = function String s -> s | v -> type_error "string" v
let to_list = function List { items; _ } -> items | v -> type_error "list" v
let to_obj = function Obj { fields; _ } -> fields | v -> type_error "object" v

(* Lookups answer with a field's value or with one of these two values,
   which no object holds: [absent] when the name is not bound, [unscanned]
   when [index_after] fields went by without it. A lookup allocates
   nothing until its caller wraps a hit. *)
let absent = String "absent"
let unscanned = String "unscanned"

let rec scan k n = function
  | [] -> absent
  | (k', v) :: rest ->
    if String.equal k k' then v else if n = 1 then unscanned else scan k (n - 1) rest

let probe tbl k = match Hashtbl.find tbl k with v -> v | exception Not_found -> absent

let find k = function
  | Obj { index = Indexed tbl; _ } -> probe tbl k
  | Obj o ->
    let v = scan k index_after o.fields in
    if v != unscanned then v
    else begin
      let tbl = Hashtbl.create (List.length o.fields) in
      List.iter (fun (k, v) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v) o.fields;
      o.index <- Indexed tbl;
      probe tbl k
    end
  | _ -> absent

let member_opt k v =
  let x = find k v in
  if x == absent then None else Some x

let member k v =
  match v with
  | Obj _ ->
    let x = find k v in
    if x == absent then raise (Type_error (Printf.sprintf "missing field %S" k)) else x
  | _ -> type_error "object" v

let mem k v = find k v != absent

let set_member k x v =
  let fields = to_obj v in
  if List.mem_assoc k fields then
    obj (List.map (fun (k', v') -> if String.equal k k' then (k', x) else (k', v')) fields)
  else obj (fields @ [ (k, x) ])

let remove_member k v =
  obj (List.filter (fun (k', _) -> not (String.equal k k')) (to_obj v))

(* Below 1e17, [%.17g] prints an integral float without a point or an
   exponent, and it would parse back as an [Int]. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e17 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

(* The printed width of each byte inside a string: 1, 2 for a
   two-character escape, 6 for [\u00XX]. The size walk and the printer's
   scan make one lookup per byte instead of a chain of tests. *)
let escaped_width =
  String.init 256 (fun i ->
      match Char.chr i with
      | '"' | '\\' | '\n' | '\r' | '\t' | '\b' | '\012' -> '\002'
      | c when Char.code c < 0x20 -> '\006'
      | _ -> '\001')

(* Printing ---------------------------------------------------------- *)

(* The printer fills a caller-owned chunk and hands it to [full] each
   time it is full, so a consumer (a buffer, a hash) takes the bytes in
   fixed-size pieces and the rendering is never held whole. Helpers are
   top-level functions of the printer state: a local closure would be
   allocated per string. *)
type printer = {
  chunk : Bytes.t;
  full : Bytes.t -> unit;
  mutable pos : int;  (** bytes pending in [chunk] *)
  mutable flushed : int;  (** bytes already handed to [full] *)
}

let printed p = p.flushed + p.pos

let advance p n =
  p.pos <- p.pos + n;
  if p.pos = Bytes.length p.chunk then begin
    p.full p.chunk;
    p.flushed <- p.flushed + p.pos;
    p.pos <- 0
  end

let add_char p c =
  Bytes.unsafe_set p.chunk p.pos c;
  advance p 1

let rec add_sub p s off len =
  if len > 0 then begin
    let n = Int.min len (Bytes.length p.chunk - p.pos) in
    Bytes.blit_string s off p.chunk p.pos n;
    advance p n;
    add_sub p s (off + n) (len - n)
  end

let add_string p s = add_sub p s 0 (String.length s)

let hex_digits = "0123456789abcdef"

(* Copy [s] from [start] in runs between the bytes that need escaping. *)
let rec add_escaped_from p s start i =
  if i = String.length s then add_sub p s start (i - start)
  else
    let c = String.unsafe_get s i in
    if String.unsafe_get escaped_width (Char.code c) = '\001' then add_escaped_from p s start (i + 1)
    else begin
      add_sub p s start (i - start);
      (match c with
      | '\n' -> add_string p "\\n"
      | '\r' -> add_string p "\\r"
      | '\t' -> add_string p "\\t"
      | '\b' -> add_string p "\\b"
      | '\012' -> add_string p "\\f"
      | '"' | '\\' ->
        add_char p '\\';
        add_char p c
      | c ->
        add_string p "\\u00";
        add_char p hex_digits.[Char.code c lsr 4];
        add_char p hex_digits.[Char.code c land 0xf]);
      add_escaped_from p s (i + 1) (i + 1)
    end

let add_escaped p s =
  add_char p '"';
  add_escaped_from p s 0 0;
  add_char p '"'

let rec write p v =
  match v with
  | Null -> add_string p "null"
  | Bool true -> add_string p "true"
  | Bool false -> add_string p "false"
  | Int i -> add_string p (string_of_int i)
  | Float f -> add_string p (float_repr f)
  | String s -> add_escaped p s
  | List l ->
    let start = printed p in
    add_char p '[';
    write_items p l.items;
    add_char p ']';
    l.size <- printed p - start
  | Obj o ->
    let start = printed p in
    add_char p '{';
    write_fields p o.fields;
    add_char p '}';
    o.size <- printed p - start

and write_items p = function
  | [] -> ()
  | [ v ] -> write p v
  | v :: rest ->
    write p v;
    add_char p ',';
    write_items p rest

and write_fields p = function
  | [] -> ()
  | [ (k, v) ] -> write_field p k v
  | (k, v) :: rest ->
    write_field p k v;
    add_char p ',';
    write_fields p rest

and write_field p k v =
  add_escaped p k;
  add_char p ':';
  write p v

let print ~chunk full v =
  if Bytes.length chunk = 0 then invalid_arg "Json.print: empty chunk";
  let p = { chunk; full; pos = 0; flushed = 0 } in
  write p v;
  printed p

let to_string v =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let n = print ~chunk (Buffer.add_bytes buf) v in
  Buffer.add_subbytes buf chunk 0 (n mod Bytes.length chunk);
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* Size model --------------------------------------------------------- *)

let escaped_length s =
  let n = ref 2 in
  for i = 0 to String.length s - 1 do
    n := !n + Char.code (String.unsafe_get escaped_width (Char.code (String.unsafe_get s i)))
  done;
  !n

(* Two brackets and a comma between each pair of the [n] items. *)
let framing n = 2 + Stdlib.max 0 (n - 1)

(* A container's length is stored only after its children's: a known
   length means every length below it is known too. *)
let rec serialized_size = function
  | Null -> 4
  | Bool true -> 4
  | Bool false -> 5
  | Int i -> String.length (string_of_int i)
  | Float f -> String.length (float_repr f)
  | String s -> escaped_length s
  | List l ->
    if l.size = unknown then
      l.size <-
        List.fold_left (fun acc v -> acc + serialized_size v) (framing (List.length l.items)) l.items;
    l.size
  | Obj o ->
    if o.size = unknown then
      o.size <-
        List.fold_left
          (fun acc (k, v) -> acc + escaped_length k + 1 + serialized_size v)
          (framing (List.length o.fields))
          o.fields;
    o.size

(* Parsing ------------------------------------------------------------ *)

exception Parse_error of string

type parser_state = { input : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" st.pos msg))

let peek_char st =
  if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek_char st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let expect st c =
  match peek_char st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected %c, got %c" c c')
  | None -> fail st (Printf.sprintf "expected %c, got end of input" c)

let expect_keyword st kw value =
  let n = String.length kw in
  if st.pos + n <= String.length st.input && String.sub st.input st.pos n = kw
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" kw)

let parse_hex4 st =
  if st.pos + 4 > String.length st.input then fail st "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let c = st.input.[st.pos] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "bad hex digit in \\u escape"
    in
    v := (!v * 16) + d;
    advance st
  done;
  !v

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char st with
    | None -> fail st "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' ->
      advance st;
      (match peek_char st with
      | Some '"' -> Buffer.add_char buf '"'; advance st
      | Some '\\' -> Buffer.add_char buf '\\'; advance st
      | Some '/' -> Buffer.add_char buf '/'; advance st
      | Some 'n' -> Buffer.add_char buf '\n'; advance st
      | Some 't' -> Buffer.add_char buf '\t'; advance st
      | Some 'r' -> Buffer.add_char buf '\r'; advance st
      | Some 'b' -> Buffer.add_char buf '\b'; advance st
      | Some 'f' -> Buffer.add_char buf '\012'; advance st
      | Some 'u' ->
        advance st;
        let code = parse_hex4 st in
        (* Encode as UTF-8; we only fully round-trip codes < 0x80 (the
           printer only emits \u for control characters). *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
      | Some c -> fail st (Printf.sprintf "bad escape \\%c" c)
      | None -> fail st "truncated escape");
      go ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let continue = ref true in
  while !continue do
    match peek_char st with
    | Some ('0' .. '9' | '-' | '+') -> advance st
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance st
    | _ -> continue := false
  done;
  let text = String.sub st.input start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail st (Printf.sprintf "bad number %S" text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail st (Printf.sprintf "bad number %S" text))

let rec parse_value st =
  skip_ws st;
  match peek_char st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> expect_keyword st "null" Null
  | Some 't' -> expect_keyword st "true" (Bool true)
  | Some 'f' -> expect_keyword st "false" (Bool false)
  | Some '"' -> String (parse_string_body st)
  | Some '[' -> parse_list st
  | Some '{' -> parse_obj st
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %c" c)

and parse_list st =
  expect st '[';
  skip_ws st;
  match peek_char st with
  | Some ']' ->
    advance st;
    list []
  | _ ->
    let rec go acc =
      let v = parse_value st in
      skip_ws st;
      match peek_char st with
      | Some ',' ->
        advance st;
        go (v :: acc)
      | Some ']' ->
        advance st;
        list (List.rev (v :: acc))
      | _ -> fail st "expected , or ] in array"
    in
    go []

and parse_obj st =
  expect st '{';
  skip_ws st;
  match peek_char st with
  | Some '}' ->
    advance st;
    obj []
  | _ ->
    let rec go acc =
      skip_ws st;
      let k = parse_string_body st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      skip_ws st;
      match peek_char st with
      | Some ',' ->
        advance st;
        go ((k, v) :: acc)
      | Some '}' ->
        advance st;
        obj (List.rev ((k, v) :: acc))
      | _ -> fail st "expected , or } in object"
    in
    go []

let of_string s =
  let st = { input = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* Padding values ------------------------------------------------------ *)

let pad n =
  if n < 2 then invalid_arg "Json.pad: need at least 2 bytes";
  String (String.make (n - 2) 'x')

let pad_unique n salt =
  if n < 12 then invalid_arg "Json.pad_unique: need at least 12 bytes";
  let tag = Printf.sprintf "%010d" (salt mod 10_000_000_000) in
  String (tag ^ String.make (n - 2 - String.length tag) 'x')
