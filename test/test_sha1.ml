(* SHA-1 correctness against FIPS 180-1 vectors plus the content-address
   properties the KVS depends on. *)

module Sha1 = Flux_sha1.Sha1
module Json = Flux_json.Json

let check = Alcotest.check
let string = Alcotest.string
let bool = Alcotest.bool

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
      qsuite "props" [ prop_no_trivial_collisions; prop_digest_length ];
    ]
