(* The wide-seed report: runs each kill-schedule harness over a wide
   seed range and prints one line per run:

     HARNESS SEED EVENTS CLOCK VIOLATIONS FIRST-VIOLATION

   with the final virtual clock in hex (%h) and "-" for no violation.
   Ranges: chaos seeds 1-3000, shard chaos 1-3000, ckpt 1-1000 for
   each kill kind, sched with a leaf kill 1-400. BENCH_FAST=1 shrinks
   them to 1-100, 1-100, 1-30 and 1-20. The report is deterministic and
   the exit status is 0 whatever the violations: comparing two
   checkouts is a diff of their outputs.

     dune exec bench/seeds/seeds.exe > seeds.txt *)

module Chaos = Flux_harness.Chaos
module Shard = Flux_harness.Shard
module Ckpt = Flux_harness.Ckpt
module Sched = Flux_harness.Sched

let fast = Sys.getenv_opt "BENCH_FAST" <> None

let line harness seed ~events ~clock violations =
  Printf.printf "%s %d %d %h %d %s\n%!" harness seed events clock (List.length violations)
    (match violations with v :: _ -> v | [] -> "-")

let seeds full short = List.init (if fast then short else full) (fun i -> i + 1)

let () =
  List.iter
    (fun seed ->
      let r = Chaos.run { Chaos.default with Chaos.seed } in
      line "chaos" seed ~events:r.Chaos.sim_events ~clock:r.Chaos.final_clock
        r.Chaos.violations)
    (seeds 3000 100);
  List.iter
    (fun seed ->
      let r = Shard.chaos seed in
      line "shard" seed ~events:r.Shard.csim_events ~clock:r.Shard.cfinal_clock
        r.Shard.cviolations)
    (seeds 3000 100);
  List.iter
    (fun (name, kill) ->
      List.iter
        (fun seed ->
          let r = Ckpt.run { Ckpt.default with Ckpt.seed; kill = Some kill } in
          line ("ckpt-" ^ name) seed ~events:r.Ckpt.r_sim_events ~clock:r.Ckpt.r_final_clock
            r.Ckpt.r_violations)
        (seeds 1000 30))
    [
      ("node", Ckpt.Node_mid_job);
      ("master", Ckpt.Master_mid_snapshot);
      ("fence", Ckpt.Between_ckpt_and_fence);
    ];
  List.iter
    (fun seed ->
      let r = Sched.run { Sched.default with Sched.seed; kill_leaf = true } in
      line "sched" seed ~events:r.Sched.r_sim_events ~clock:r.Sched.r_final_clock
        r.Sched.r_violations)
    (seeds 400 20)
