(* The harness registry, its runner and its subcommands: the bench,
   [make check], CI and the [flux] utility all reach the harnesses
   through [Registry.all]; [Harness.run] turns one sweep's violations
   into a failing exit code, and [Harness.cmd] does the same for one
   run from the command line. *)

module Json = Flux_json.Json
module Harness = Flux_harness.Harness
module Registry = Flux_harness.Registry
module Ckpt = Flux_harness.Ckpt

let check = Alcotest.check

let contains s sub =
  match Str.search_forward (Str.regexp_string sub) s 0 with
  | _ -> true
  | exception Not_found -> false

(* Run [f] with stdout sent to a file; return its result and the text. *)
let capture f =
  flush stdout;
  let file = Filename.temp_file "harness" ".out" in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let result =
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      f
  in
  let text = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  (result, text)

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
    (List.map (Harness.report_file ~fast:false) Registry.all);
  check
    Alcotest.(list string)
    "fast reports never overwrite paper-scale ones"
    (List.map (fun n -> "BENCH_" ^ String.uppercase_ascii n ^ ".fast.json") names)
    (List.map (Harness.report_file ~fast:true) Registry.all)

let planted_doc =
  Json.obj [ ("experiment", Json.string "planted"); ("tier", Harness.tier ~fast:true) ]

(* A harness whose sweep and run both report violations. *)
let planted =
  {
    Harness.name = "planted";
    title = "a sweep with planted violations";
    sweep =
      (fun ~fast:_ ->
        {
          Harness.doc = planted_doc;
          violations =
            Harness.labelled "seed 3" [ "lost write k1" ]
            @ Harness.check true "held"
            @ Harness.check false "headline missed";
          host = [];
        });
    cli = Harness.once Fun.id (fun () -> []) (fun () -> [ "lost write k1" ]);
  }

(* A sweep with planted violations — one from a run, one a missed
   headline check — must be counted, and its report still written. *)
let test_run_counts_violations () =
  let file = Harness.report_file ~fast:true planted in
  let count, out = capture (fun () -> Harness.run ~fast:true planted) in
  check Alcotest.int "violations counted" 2 count;
  let written = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  check Alcotest.bool "report written" true
    (Json.equal planted_doc (Json.of_string (String.trim written)));
  let sweep = planted.Harness.sweep ~fast:true in
  check Alcotest.bool "fingerprint line" true
    (List.mem
       ("fingerprint planted " ^ Harness.fingerprint sweep)
       (String.split_on_char '\n' out));
  let clean =
    {
      planted with
      Harness.sweep = (fun ~fast:_ -> { sweep with Harness.violations = [] });
    }
  in
  check Alcotest.int "clean sweep" 0 (fst (capture (fun () -> Harness.run ~fast:true clean)));
  Sys.remove file;
  check
    Alcotest.(list string)
    "labels" [ "seed 3: a"; "seed 3: b" ]
    (Harness.labelled "seed 3" [ "a"; "b" ])

(* The fingerprint leaves out the members the sweep names as host-
   measured, at any depth, and sees every other member. *)
let test_fingerprint () =
  let doc ~wall ~events =
    Json.obj
      [
        ("experiment", Json.string "planted");
        ("overhead_pct", Json.float (wall *. 10.0));
        ( "runs",
          Json.list
            [ Json.obj [ ("wall_s", Json.float wall); ("sim_events", Json.int events) ] ] );
      ]
  in
  let fp ~wall ~events =
    Harness.fingerprint
      { Harness.doc = doc ~wall ~events; violations = []; host = [ "wall_s"; "overhead_pct" ] }
  in
  check Alcotest.string "host members ignored" (fp ~wall:1.0 ~events:7) (fp ~wall:2.5 ~events:7);
  check Alcotest.bool "deterministic member seen" true
    (fp ~wall:1.0 ~events:7 <> fp ~wall:1.0 ~events:8);
  check Alcotest.string "MD5 of the document without host members"
    (Digest.to_hex
       (Digest.string
          (Json.to_string
             (Json.obj
                [
                  ("experiment", Json.string "planted");
                  ("runs", Json.list [ Json.obj [ ("sim_events", Json.int 7) ] ]);
                ]))))
    (fp ~wall:1.0 ~events:7)

(* --- The [flux] harness subcommands ------------------------------------- *)

let flux harnesses =
  Cmdliner.Cmd.group (Cmdliner.Cmd.info "flux") (List.map Harness.cmd harnesses)

(* Evaluate [flux ARGS] in-process; help and error text go to a buffer. *)
let eval ?(harnesses = Registry.all) args =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let code =
    Cmdliner.Cmd.eval' ~help:ppf ~err:ppf ~env:(fun _ -> None)
      ~argv:(Array.of_list ("flux" :: args))
      (flux harnesses)
  in
  Format.pp_print_flush ppf ();
  (code, Buffer.contents buf)

let expect_usage_error args =
  let code, err = eval args in
  let line = String.concat " " args in
  check Alcotest.int (line ^ ": usage error") Cmdliner.Cmd.Exit.cli_error code;
  check Alcotest.bool (line ^ ": a reason") true (String.length err > 0)

let test_bad_configs () =
  List.iter expect_usage_error
    [
      [ "elastic"; "--child-nodes"; "1" ];
      [ "elastic"; "-N"; "8"; "--child-nodes"; "8" ];
      [ "elastic"; "--drain=-1" ];
      [ "elastic"; "--silence-at=-1" ];
      [ "sched"; "--policy"; "bogus" ];
      [ "sched"; "--depth"; "5" ];
      [ "ckpt"; "-N"; "5" ];
      [ "telem"; "--window"; "0" ];
    ]

let test_bad_enums () =
  List.iter expect_usage_error
    [
      [ "elastic"; "--mode"; "bogus" ];
      [ "ckpt"; "--kill"; "bogus" ];
      [ "telem"; "--fault"; "bogus" ];
    ]

let test_help () =
  List.iter
    (fun h ->
      let code, help = eval [ h.Harness.name; "--help=plain" ] in
      check Alcotest.int (h.Harness.name ^ " --help") Cmdliner.Cmd.Exit.ok code;
      check Alcotest.bool (h.Harness.name ^ " help names exit 1") true
        (contains help "1   when the run reports a violation"))
    Registry.all;
  let code, help = eval [ "--help=plain" ] in
  check Alcotest.int "flux --help" Cmdliner.Cmd.Exit.ok code;
  List.iter
    (fun h ->
      check Alcotest.bool ("flux --help lists " ^ h.Harness.name) true
        (List.exists
           (fun line -> String.trim line |> String.starts_with ~prefix:h.Harness.name)
           (String.split_on_char '\n' help)))
    Registry.all

let test_violation_exit () =
  let code, _ = capture (fun () -> fst (eval ~harnesses:[ planted ] [ "planted" ])) in
  check Alcotest.int "a violation exits 1" 1 code;
  let clean = { planted with Harness.cli = Harness.once Fun.id (fun () -> []) (fun () -> []) } in
  let code, _ = capture (fun () -> fst (eval ~harnesses:[ clean ] [ "planted" ])) in
  check Alcotest.int "a clean run exits 0" 0 code

(* Without flags, [flux ckpt] runs [Ckpt.default] and prints its row. *)
let test_ckpt_defaults () =
  check Alcotest.int "13 ranks" 13 Ckpt.default.Ckpt.size;
  let (code, _), printed = capture (fun () -> eval [ "ckpt" ]) in
  check Alcotest.int "exit" 0 code;
  check Alcotest.bool "printed row" true
    (Json.equal
       (Json.obj (Ckpt.row (Ckpt.run Ckpt.default)))
       (Json.of_string (String.trim printed)))

(* [flux sched --central] follows the configured run with the
   centralized comparator's row. The comparator has no workers to kill,
   so [--kill-leaf] applies to the hierarchy only. *)
let test_sched_central_kill_leaf () =
  let tasks = 40 in
  let (code, _), printed =
    capture (fun () ->
        eval [ "sched"; "-N"; "8"; "--tasks"; string_of_int tasks; "--central"; "--kill-leaf" ])
  in
  check Alcotest.int "exit" 0 code;
  match String.split_on_char '\n' (String.trim printed) with
  | [ run; central; ratio ] ->
    check Alcotest.int "the hierarchy acked every task" tasks
      (Json.to_int (Json.member "acked" (Json.of_string run)));
    check Alcotest.int "the comparator completed every task" tasks
      (Json.to_int (Json.member "completed" (Json.of_string central)));
    check Alcotest.bool "throughput ratio printed" true
      (String.starts_with ~prefix:"hierarchy/central throughput: " ratio)
  | lines -> Alcotest.failf "expected three lines, got %d:\n%s" (List.length lines) printed

let () =
  Alcotest.run "harness"
    [
      ( "registry",
        [
          Alcotest.test_case "names and report files" `Quick test_registry;
          Alcotest.test_case "run counts violations" `Quick test_run_counts_violations;
          Alcotest.test_case "fingerprint ignores host members" `Quick test_fingerprint;
        ] );
      ( "cli",
        [
          Alcotest.test_case "bad configs are usage errors" `Quick test_bad_configs;
          Alcotest.test_case "bad enum values are usage errors" `Quick test_bad_enums;
          Alcotest.test_case "help for every harness" `Quick test_help;
          Alcotest.test_case "violations exit 1" `Quick test_violation_exit;
          Alcotest.test_case "ckpt defaults" `Quick test_ckpt_defaults;
          Alcotest.test_case "sched central with kill-leaf" `Quick test_sched_central_kill_leaf;
        ] );
    ]
