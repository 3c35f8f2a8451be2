(* The harness registry and its runner: the bench, [make check] and CI
   all reach the harnesses through [Registry.all], and [Harness.run] is
   what turns one sweep's violations into a failing exit code. *)

module Json = Flux_json.Json
module Harness = Flux_harness.Harness
module Registry = Flux_harness.Registry

let check = Alcotest.check

let test_registry () =
  let names = List.map (fun h -> h.Harness.name) Registry.all in
  check
    Alcotest.(list string)
    "every harness, in make check order"
    [ "chaos"; "overload"; "shard"; "ckpt"; "sched"; "telem"; "elastic" ]
    names;
  List.iter
    (fun n ->
      match Registry.find n with
      | Some h -> check Alcotest.string ("find " ^ n) n h.Harness.name
      | None -> Alcotest.failf "registry cannot find %s" n)
    names;
  check Alcotest.bool "unknown name" true (Registry.find "perf" = None);
  check
    Alcotest.(list string)
    "one report file per harness"
    (List.map (fun n -> "BENCH_" ^ String.uppercase_ascii n ^ ".json") names)
    (List.map Harness.report_file Registry.all)

(* A sweep with planted violations — one from a run, one a missed
   headline check — must be counted, and its report still written. *)
let test_run_counts_violations () =
  let doc = Json.obj [ ("experiment", Json.string "planted"); ("tier", Harness.tier ~fast:true) ] in
  let planted =
    {
      Harness.name = "planted";
      title = "a sweep with planted violations";
      sweep =
        (fun ~fast:_ ->
          {
            Harness.doc;
            violations =
              Harness.labelled "seed 3" [ "lost write k1" ]
              @ Harness.check true "held"
              @ Harness.check false "headline missed";
          });
    }
  in
  let file = Harness.report_file planted in
  check Alcotest.int "violations counted" 2 (Harness.run ~fast:true planted);
  let written = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  check Alcotest.bool "report written" true (Json.equal doc (Json.of_string (String.trim written)));
  let clean = { planted with Harness.sweep = (fun ~fast:_ -> { Harness.doc; violations = [] }) } in
  check Alcotest.int "clean sweep" 0 (Harness.run ~fast:true clean);
  Sys.remove file;
  check
    Alcotest.(list string)
    "labels" [ "seed 3: a"; "seed 3: b" ]
    (Harness.labelled "seed 3" [ "a"; "b" ])

let () =
  Alcotest.run "harness"
    [
      ( "registry",
        [
          Alcotest.test_case "names and report files" `Quick test_registry;
          Alcotest.test_case "run counts violations" `Quick test_run_counts_violations;
        ] );
    ]
