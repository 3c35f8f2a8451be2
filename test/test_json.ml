(* Tests for the Flux_json library: printing, parsing, accessors and the
   serialized-size model the network simulator relies on. *)

module Json = Flux_json.Json

let check = Alcotest.check
let string = Alcotest.string
let bool = Alcotest.bool
let int = Alcotest.int

let json_testable = Alcotest.testable Json.pp Json.equal

let sample =
  Json.obj
    [
      ("name", Json.string "flux");
      ("size", Json.int 512);
      ("ratio", Json.float 0.5);
      ("ok", Json.bool true);
      ("missing", Json.null);
      ("ranks", Json.list [ Json.int 0; Json.int 1; Json.int 2 ]);
      ("nested", Json.obj [ ("a", Json.string "b") ]);
    ]

let test_print () =
  check string "compact print"
    "{\"name\":\"flux\",\"size\":512,\"ratio\":0.5,\"ok\":true,\"missing\":null,\"ranks\":[0,1,2],\"nested\":{\"a\":\"b\"}}"
    (Json.to_string sample)

let test_parse_roundtrip () =
  check json_testable "roundtrip" sample (Json.of_string (Json.to_string sample))

let test_parse_whitespace () =
  check json_testable "whitespace tolerated"
    (Json.obj [ ("a", Json.int 1) ])
    (Json.of_string " { \"a\" :\n 1 } ")

let test_parse_escapes () =
  let v = Json.string "line\nquote\"back\\slash\ttab" in
  check json_testable "escape roundtrip" v (Json.of_string (Json.to_string v));
  check json_testable "unicode escape" (Json.string "A") (Json.of_string "\"\\u0041\"")

let test_parse_errors () =
  let fails s =
    match Json.of_string_opt s with
    | None -> ()
    | Some _ -> Alcotest.failf "expected parse failure for %S" s
  in
  List.iter fails
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1.2.3"; "\"unterminated"; "[1] trailing"; "{'a':1}" ]

let test_numbers () =
  check json_testable "negative int" (Json.int (-42)) (Json.of_string "-42");
  check json_testable "float exp" (Json.float 1500.0) (Json.of_string "1.5e3");
  check json_testable "float printed with point" (Json.float 2.0) (Json.of_string "2.0");
  check bool "int and float distinct" false (Json.equal (Json.int 1) (Json.float 1.0))

(* [%.17g] prints an integral float below 1e17 without a point or an
   exponent; printed that way, it would parse back as an [Int]. *)
let test_integral_floats () =
  List.iter
    (fun f ->
      let v = Json.float f and label = Printf.sprintf "%.17g" f in
      check json_testable label v (Json.of_string (Json.to_string v));
      check int label (String.length (Json.to_string v)) (Json.serialized_size v))
    [ 1e16; 2e16; -1e16; 9.9e16; 1e17 ]

let test_accessors () =
  check int "member int" 512 (Json.to_int (Json.member "size" sample));
  check string "member string" "flux" (Json.to_string_v (Json.member "name" sample));
  check (Alcotest.float 1e-9) "to_float of int" 512.0
    (Json.to_float (Json.member "size" sample));
  Alcotest.check_raises "missing member" (Json.Type_error "missing field \"nope\"")
    (fun () -> ignore (Json.member "nope" sample));
  (match Json.member_opt "nope" sample with
  | None -> ()
  | Some _ -> Alcotest.fail "member_opt should be None");
  Alcotest.check_raises "wrong type" (Json.Type_error "expected int, got string")
    (fun () -> ignore (Json.to_int (Json.string "x")))

let test_set_remove_member () =
  let v = Json.obj [ ("a", Json.int 1); ("b", Json.int 2) ] in
  check json_testable "replace"
    (Json.obj [ ("a", Json.int 9); ("b", Json.int 2) ])
    (Json.set_member "a" (Json.int 9) v);
  check json_testable "append"
    (Json.obj [ ("a", Json.int 1); ("b", Json.int 2); ("c", Json.int 3) ])
    (Json.set_member "c" (Json.int 3) v)

let test_size_model () =
  check int "size equals printed length"
    (String.length (Json.to_string sample))
    (Json.serialized_size sample)

let test_pad () =
  List.iter
    (fun n -> check int "pad size" n (Json.serialized_size (Json.pad n)))
    [ 2; 8; 32; 2048 ];
  Alcotest.check_raises "pad too small" (Invalid_argument "Json.pad: need at least 2 bytes")
    (fun () -> ignore (Json.pad 1))

let test_pad_unique () =
  let a = Json.pad_unique 32 1 and b = Json.pad_unique 32 2 in
  check bool "distinct salts differ" false (Json.equal a b);
  check int "sized" 32 (Json.serialized_size a);
  check json_testable "same salt equal" a (Json.pad_unique 32 1)

let test_deep_nesting () =
  let rec build n = if n = 0 then Json.int 1 else Json.list [ build (n - 1) ] in
  let v = build 200 in
  check json_testable "deep roundtrip" v (Json.of_string (Json.to_string v));
  check int "deep size exact" (String.length (Json.to_string v)) (Json.serialized_size v)

let test_large_integers () =
  List.iter
    (fun i -> check json_testable "int roundtrip" (Json.int i) (Json.of_string (string_of_int i)))
    [ max_int / 2; -(max_int / 2); 0; -1 ]

let test_empty_containers () =
  check json_testable "empty list" (Json.list []) (Json.of_string "[]");
  check json_testable "empty obj" (Json.obj []) (Json.of_string "{}");
  check int "empty list size" 2 (Json.serialized_size (Json.list []));
  check int "empty obj size" 2 (Json.serialized_size (Json.obj []))

let test_control_characters () =
  let v = Json.string "a\x01b\x1fc" in
  check json_testable "control chars roundtrip" v (Json.of_string (Json.to_string v));
  check int "escaped size" (String.length (Json.to_string v)) (Json.serialized_size v)

let test_strings_helper () =
  check json_testable "strings builder"
    (Json.list [ Json.string "a"; Json.string "b" ])
    (Json.strings [ "a"; "b" ])

(* --- Chunked printer ------------------------------------------------------ *)

(* Every byte value, so each escape the printer knows is exercised. *)
let all_bytes = String.init 256 Char.chr

(* An escaper written independently of the printer, for the golden. *)
let reference_quote s =
  let b = Buffer.create (String.length s) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* A list whose rendering is exactly [n] bytes (n >= 4). *)
let printed_length n = Json.list [ Json.pad (n - 2) ]

(* Fresh values each call: the printer stores each container's length in
   the container, so a shared value would hide what a first print does. The
   lists are 55 to 128 bytes long, either side of one and two 64-byte
   blocks. *)
let chunk_cases () =
  [
    sample;
    Json.string all_bytes;
    Json.obj [ (all_bytes, Json.list [ Json.string all_bytes; Json.int min_int; Json.float 0.1 ]) ];
    Json.obj (List.init 600 (fun i -> (Printf.sprintf "n%04d" i, Json.obj [ ("v", Json.int i) ])));
  ]
  @ List.map printed_length [ 55; 56; 63; 64; 119; 120; 128 ]

(* [Json.print] hands over full chunks only and leaves the tail at the
   chunk's start; reassembled, the pieces are [to_string]'s bytes. *)
let test_chunked_printer () =
  List.iter
    (fun chunk_len ->
      List.iter
        (fun v ->
          let expected = Json.to_string v in
          let chunk = Bytes.create chunk_len in
          let got = Buffer.create 256 in
          let fulls = ref 0 in
          let n =
            Json.print ~chunk
              (fun c ->
                incr fulls;
                check bool "hands over its own chunk" true (c == chunk);
                Buffer.add_bytes got c)
              v
          in
          Buffer.add_subbytes got chunk 0 (n mod chunk_len);
          check int (Printf.sprintf "length at chunk %d" chunk_len) (String.length expected) n;
          check int (Printf.sprintf "full chunks at chunk %d" chunk_len) (n / chunk_len) !fulls;
          check string (Printf.sprintf "bytes at chunk %d" chunk_len) expected (Buffer.contents got))
        (chunk_cases ()))
    [ 1; 7; 64; 4096 ];
  Alcotest.check_raises "empty chunk" (Invalid_argument "Json.print: empty chunk") (fun () ->
      ignore (Json.print ~chunk:Bytes.empty ignore sample : int))

let test_escape_golden () =
  check string "every byte value" (reference_quote all_bytes) (Json.to_string (Json.string all_bytes));
  check string "as a name" ("{" ^ reference_quote all_bytes ^ ":null}")
    (Json.to_string (Json.obj [ (all_bytes, Json.null) ]))

(* Random JSON generator for property tests. *)
let gen_json =
  QCheck.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            let leaf =
              oneof
                [
                  return Json.null;
                  map Json.bool bool;
                  map Json.int (int_range (-1000000) 1000000);
                  map (fun f -> Json.float (Float.of_int (int_of_float (f *. 100.)) /. 4.))
                    (float_bound_inclusive 100.0);
                  (* Finite floats from 2^-60 to 2^70 in magnitude, many of
                     them integral and past 1e16. *)
                  map2
                    (fun m e -> Json.float (Float.ldexp (Float.of_int m) e))
                    (int_range (-1_000_000) 1_000_000) (int_range (-60) 50);
                  (* Every byte, so control characters reach the
                     printer's escapes and the size model. *)
                  map Json.string (string_size ~gen:char (0 -- 10));
                ]
            in
            if n <= 0 then leaf
            else
              frequency
                [
                  (3, leaf);
                  (1, map Json.list (list_size (0 -- 4) (self (n / 2))));
                  ( 1,
                    map Json.obj
                      (list_size (0 -- 4)
                         (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 6)) (self (n / 2))))
                  );
                ])
          n))

let arb_json = QCheck.make ~print:Json.to_string gen_json

(* The printed value has its lengths stored and the parsed copy has
   none: [equal] does not see the difference. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:300 arb_json (fun v ->
      Json.equal v (Json.of_string (Json.to_string v)))

(* Asked before printing, after it, inside a container built later, and
   on a parsed copy that was never measured. *)
let prop_size =
  QCheck.Test.make ~name:"size model is exact" ~count:300 arb_json (fun v ->
      let size = Json.serialized_size v in
      let printed = Json.to_string v in
      size = String.length printed
      && Json.serialized_size v = size
      && Json.serialized_size (Json.list [ v; v ]) = (2 * size) + 3
      && Json.serialized_size (Json.of_string printed) = size)

(* Names repeat and probes miss, on objects on both sides of the
   64-field point where a lookup builds the name index. Every lookup
   must give the first binding before and after the index exists, and
   the index must not show through equality, printing or size. *)
let prop_member_index =
  let gen =
    QCheck.Gen.(pair (list_size (int_range 0 200) (int_range 0 299)) (list_size (int_range 1 40) (int_range 0 319)))
  in
  QCheck.Test.make ~name:"member agrees with List.assoc_opt, indexed or not" ~count:200
    (QCheck.make ~print:QCheck.Print.(pair (list int) (list int)) gen) (fun (names, probes) ->
      let fields = List.mapi (fun i n -> (Printf.sprintf "k%d" n, Json.int i)) names in
      let v = Json.obj fields in
      let agrees k =
        let expect = List.assoc_opt k fields in
        Option.equal Json.equal (Json.member_opt k v) expect
        &&
        match Json.member k v with
        | x -> Option.equal Json.equal (Some x) expect
        | exception Json.Type_error _ -> Option.is_none expect
      in
      let keys = List.map (Printf.sprintf "k%d") probes in
      let copy = Json.obj fields in
      List.for_all agrees keys
      && agrees "absent"
      && List.for_all agrees keys
      && List.for_all (fun (k, _) -> agrees k) fields
      && Json.equal v copy
      && Json.equal copy v
      && String.equal (Json.to_string v) (Json.to_string copy)
      && Json.serialized_size v = Json.serialized_size copy)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "flux_json"
    [
      ( "print-parse",
        [
          Alcotest.test_case "print" `Quick test_print;
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "whitespace" `Quick test_parse_whitespace;
          Alcotest.test_case "escapes" `Quick test_parse_escapes;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "integral floats" `Quick test_integral_floats;
        ] );
      ( "accessors",
        [
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "set/remove member" `Quick test_set_remove_member;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "large integers" `Quick test_large_integers;
          Alcotest.test_case "empty containers" `Quick test_empty_containers;
          Alcotest.test_case "control characters" `Quick test_control_characters;
          Alcotest.test_case "strings helper" `Quick test_strings_helper;
        ] );
      ( "chunked-printer",
        [
          Alcotest.test_case "chunks reassemble to to_string" `Quick test_chunked_printer;
          Alcotest.test_case "escapes every byte value" `Quick test_escape_golden;
        ] );
      ( "size-model",
        [
          Alcotest.test_case "exact size" `Quick test_size_model;
          Alcotest.test_case "pad" `Quick test_pad;
          Alcotest.test_case "pad_unique" `Quick test_pad_unique;
        ] );
      qsuite "props" [ prop_roundtrip; prop_size; prop_member_index ];
    ]
