(* SHA-1 correctness against FIPS 180-1 vectors plus the content-address
   properties the KVS depends on. *)

module Sha1 = Flux_sha1.Sha1
module Json = Flux_json.Json

let check = Alcotest.check
let string = Alcotest.string
let bool = Alcotest.bool
let int = Alcotest.int

let hex d = Sha1.to_hex d

let test_fips_vectors () =
  check string "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709"
    (hex (Sha1.digest_string ""));
  check string "abc" "a9993e364706816aba3e25717850c26c9cd0d89d"
    (hex (Sha1.digest_string "abc"));
  check string "two-block"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (hex (Sha1.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  check string "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (hex (Sha1.digest_string (String.make 1_000_000 'a')))

let test_padding_boundaries () =
  (* Lengths around the 55/56/63/64 byte padding edges must not crash
     and must differ pairwise. *)
  let digests =
    List.map (fun n -> hex (Sha1.digest_string (String.make n 'q'))) [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]
  in
  let distinct = List.sort_uniq compare digests in
  check Alcotest.int "all distinct" (List.length digests) (List.length distinct)

let test_json_digest_dedup () =
  let a = Json.obj [ ("k", Json.int 1) ] in
  let b = Json.obj [ ("k", Json.int 1) ] in
  let c = Json.obj [ ("k", Json.int 2) ] in
  check bool "equal values hash equal" true (Sha1.equal (Sha1.digest_json a) (Sha1.digest_json b));
  check bool "different values hash different" false
    (Sha1.equal (Sha1.digest_json a) (Sha1.digest_json c))

let test_of_hex () =
  let d = Sha1.digest_string "x" in
  check bool "of_hex roundtrip" true (Sha1.equal d (Sha1.of_hex (Sha1.to_hex d)));
  check string "upper case comes back lower" (hex d)
    (hex (Sha1.of_hex (String.uppercase_ascii (hex d))));
  let rejects label s =
    Alcotest.check_raises label (Invalid_argument "Sha1.of_hex: expected 40 hex characters")
      (fun () -> ignore (Sha1.of_hex s))
  in
  rejects "bad hex" "zz";
  rejects "non-hex 40th character" (String.sub (hex d) 0 39 ^ "g");
  rejects "39 characters" (String.sub (hex d) 0 39);
  rejects "41 characters" (hex d ^ "0");
  check string "short" (String.sub (Sha1.to_hex d) 0 8) (Sha1.short d)

(* --- Hashing the printer's chunks ---------------------------------------- *)

(* A value whose rendering is exactly [n] bytes (n >= 4). *)
let printed_length n = Json.list [ Json.pad (n - 2) ]

let hex_entry i = Json.obj [ ("d", Json.string (hex (Sha1.digest_string (string_of_int i)))) ]

(* A directory as the KVS stores it: sorted names, one reference each. *)
let fresh_dir n = Json.obj (List.init n (fun i -> (Printf.sprintf "task%04d" i, hex_entry i)))

(* Values are built afresh for each check: digests and sizes are
   memoized by physical identity, and a memo hit would skip the
   streamed path under test. *)
let streamed_cases () =
  [
    Json.null;
    Json.int (-42);
    Json.float 0.1;
    Json.string (String.init 256 Char.chr);
    fresh_dir 3;
    fresh_dir 600;
    Json.list [ fresh_dir 40; Json.obj [ ("k\"\n", fresh_dir 40) ] ];
  ]
  @ List.concat_map
      (fun n -> [ Json.pad n; printed_length n ])
      [ 55; 56; 63; 64; 119; 120; 128 ]

let test_digest_json_streamed () =
  List.iter
    (fun v ->
      let streamed = Sha1.digest_json v in
      check string (Json.to_string v |> String.length |> Printf.sprintf "%d bytes")
        (hex (Sha1.digest_string (Json.to_string v)))
        (hex streamed))
    (streamed_cases ())

(* Whichever of the size walk and the hash first records a container's
   size, the size model still matches the printed length. *)
let test_size_after_digest () =
  List.iter2
    (fun before after ->
      check int "size before digest" (String.length (Json.to_string before)) (Json.serialized_size before);
      ignore (Sha1.digest_json after : Sha1.digest);
      check int "size after digest" (String.length (Json.to_string after)) (Json.serialized_size after))
    (streamed_cases ()) (streamed_cases ())

let gen_json =
  QCheck.Gen.(
    fix
      (fun self depth ->
        let leaf =
          oneof
            [
              map Json.int int;
              map Json.string (string_size ~gen:char (0 -- 80));
              return Json.null;
            ]
        in
        if depth = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, map Json.list (list_size (0 -- 30) (self (depth - 1))));
              ( 1,
                map Json.obj
                  (list_size (0 -- 30) (pair (string_size ~gen:char (1 -- 8)) (self (depth - 1)))) );
            ])
      3)

let prop_digest_json_streamed =
  QCheck.Test.make ~name:"digest_json hashes the printed bytes" ~count:200
    (QCheck.make ~print:Json.to_string gen_json) (fun v ->
      Sha1.equal (Sha1.digest_json v) (Sha1.digest_string (Json.to_string v)))

(* --- Allocation guards --------------------------------------------------- *)

(* Allocation counts repeat exactly from run to run, unlike wall time, so
   they pin the streamed hash and the compression loop. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let below label limit words =
  if words >= limit then Alcotest.failf "%s allocated %.0f words (limit %.0f)" label words limit

let test_allocation () =
  let dir = fresh_dir 600 in
  below "digest_json of a fresh 600-entry directory" 1_000.
    (minor_words_of (fun () -> Sha1.digest_json dir));
  below "serialized_size straight after" 100. (minor_words_of (fun () -> Json.serialized_size dir));
  let mb = String.make 1_000_000 'a' in
  below "digest_string of 1 MB" 1_000. (minor_words_of (fun () -> Sha1.digest_string mb))

let prop_no_trivial_collisions =
  QCheck.Test.make ~name:"distinct strings hash distinctly (sampled)" ~count:300
    QCheck.(pair string string)
    (fun (a, b) ->
      a = b || not (Sha1.equal (Sha1.digest_string a) (Sha1.digest_string b)))

let prop_digest_length =
  QCheck.Test.make ~name:"digest is 40 hex chars" ~count:100 QCheck.string (fun s ->
      let h = Sha1.to_hex (Sha1.digest_string s) in
      String.length h = 40
      && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) h)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "flux_sha1"
    [
      ( "vectors",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_fips_vectors;
          Alcotest.test_case "padding boundaries" `Quick test_padding_boundaries;
        ] );
      ( "kvs-properties",
        [
          Alcotest.test_case "json dedup" `Quick test_json_digest_dedup;
          Alcotest.test_case "hex validation" `Quick test_of_hex;
        ] );
      ( "streamed",
        [
          Alcotest.test_case "digest_json = digest_string of to_string" `Quick
            test_digest_json_streamed;
          Alcotest.test_case "size model after digest" `Quick test_size_after_digest;
          Alcotest.test_case "allocation" `Quick test_allocation;
        ] );
      qsuite "props" [ prop_no_trivial_collisions; prop_digest_length; prop_digest_json_streamed ];
    ]
