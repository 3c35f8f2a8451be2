(* Determinism golden tests: the engine's hot-path optimizations
   (heap compaction, sizes carried by the value, session fast paths)
   must be unobservable. Each workload here runs twice in the
   same process; everything a user can see — trace counters, the final
   simulated clock, event and message counts — must match exactly. The
   fig2 run is also pinned to recorded values, which holds across
   commits. *)

module Kap = Flux_kap.Kap
module Chaos = Flux_harness.Chaos
module Sched = Flux_harness.Sched
module Export = Flux_trace.Export

let check = Alcotest.check

(* A small fig2-shaped workload: every proc puts one value, fences, then
   every proc reads one back. Traced so the counter CSV (per-event
   category/name occurrence counts and virtual durations) can serve as a
   behavioural digest of the whole run. *)
let fig2_cfg =
  {
    (Kap.fully_populated ~nodes:8) with
    Kap.value_size = 256;
    ngets = 1;
    trace = true;
  }

let test_kap_run_twice () =
  let r1 = Kap.run fig2_cfg in
  let r2 = Kap.run fig2_cfg in
  let csv r =
    match r.Kap.r_trace with
    | Some tr -> Export.counters_csv tr
    | None -> Alcotest.fail "expected a tracer on a trace=true run"
  in
  check Alcotest.string "trace counters identical" (csv r1) (csv r2);
  check (Alcotest.float 0.0) "final simulated clock identical" r1.Kap.r_wallclock
    r2.Kap.r_wallclock;
  check Alcotest.int "engine events identical" r1.Kap.r_events r2.Kap.r_events;
  check Alcotest.int "rpc messages identical" r1.Kap.r_rpc_messages r2.Kap.r_rpc_messages;
  check Alcotest.int "loads identical" r1.Kap.r_loads_issued r2.Kap.r_loads_issued;
  check (Alcotest.float 0.0) "producer max identical" r1.Kap.r_producer.Kap.ph_max
    r2.Kap.r_producer.Kap.ph_max;
  check (Alcotest.float 0.0) "sync max identical" r1.Kap.r_sync.Kap.ph_max
    r2.Kap.r_sync.Kap.ph_max

(* The same run against recorded values, so a change that moves the
   simulation moves this test even when it repeats within one build.
   128 procs put into one directory, so every get searches that
   directory through its name index. A change that is meant to move
   these values says so and records the new ones. *)
let test_kap_goldens () =
  let r = Kap.run fig2_cfg in
  check Alcotest.int "engine events" 1980 r.Kap.r_events;
  check Alcotest.string "final simulated clock" "0x1.475be5cc259cep-10"
    (Printf.sprintf "%h" r.Kap.r_wallclock);
  check Alcotest.int "rpc messages" 56 r.Kap.r_rpc_messages;
  check Alcotest.int "loads" 14 r.Kap.r_loads_issued;
  (* The traced stream itself: every event, field and span of the
     barrier, the fence and the commit, by digest. *)
  let md5 s = Digest.to_hex (Digest.string s) in
  (match (r.Kap.r_trace, r.Kap.r_metrics) with
  | Some tr, Some m ->
    check Alcotest.string "trace jsonl" "34d8b4f3e402ccbd982ad3af3d603fab"
      (md5 (Export.to_jsonl tr));
    check Alcotest.string "trace counters" "aa44eb2ef8d964f7881dc6523beff076"
      (md5 (Export.counters_csv tr));
    check Alcotest.string "metrics csv" "e512df8227ed61e899c21630e42aeea9"
      (md5 (Flux_trace.Metrics.to_csv m))
  | _ -> Alcotest.fail "expected a tracer and metrics on a trace=true run")

(* Tracing must be pay-for-what-you-use in behaviour, not just cost:
   attaching the tracer and metrics registry (trace = true) must leave
   the simulation bit-for-bit identical to an untraced run — same final
   clock, same engine event count, same wire traffic, same phase
   latencies. Instrumentation that scheduled an event or perturbed a
   payload size would show up here. *)
let test_trace_on_off_identical () =
  let on = Kap.run fig2_cfg in
  let off = Kap.run { fig2_cfg with Kap.trace = false } in
  (match (off.Kap.r_trace, off.Kap.r_metrics) with
  | None, None -> ()
  | _ -> Alcotest.fail "untraced run must not carry a tracer or metrics");
  check (Alcotest.float 0.0) "final simulated clock identical" on.Kap.r_wallclock
    off.Kap.r_wallclock;
  check Alcotest.int "engine events identical" on.Kap.r_events off.Kap.r_events;
  check Alcotest.int "rpc messages identical" on.Kap.r_rpc_messages off.Kap.r_rpc_messages;
  check Alcotest.int "loads identical" on.Kap.r_loads_issued off.Kap.r_loads_issued;
  check Alcotest.int "root ingress bytes identical" on.Kap.r_root_ingress_bytes
    off.Kap.r_root_ingress_bytes;
  check (Alcotest.float 0.0) "producer max identical" on.Kap.r_producer.Kap.ph_max
    off.Kap.r_producer.Kap.ph_max;
  check (Alcotest.float 0.0) "sync max identical" on.Kap.r_sync.Kap.ph_max
    off.Kap.r_sync.Kap.ph_max;
  check (Alcotest.float 0.0) "consumer max identical" on.Kap.r_consumer.Kap.ph_max
    off.Kap.r_consumer.Kap.ph_max

(* One chaos seed run twice: kills, revives, takeovers, the final
   (epoch, version) and the virtual clock at convergence must all
   repeat. The report record compares componentwise so a mismatch names
   the field that drifted. *)
let chaos_cfg = { Chaos.default with Chaos.seed = 77; rounds = 12; duration = 12.0 }

let test_chaos_run_twice () =
  let r1 = Chaos.run chaos_cfg in
  let r2 = Chaos.run chaos_cfg in
  check Alcotest.int "commits_ok" r1.Chaos.commits_ok r2.Chaos.commits_ok;
  check Alcotest.int "fences_ok" r1.Chaos.fences_ok r2.Chaos.fences_ok;
  check Alcotest.int "gets_ok" r1.Chaos.gets_ok r2.Chaos.gets_ok;
  check Alcotest.int "kills" r1.Chaos.kills r2.Chaos.kills;
  check Alcotest.int "revives" r1.Chaos.revives r2.Chaos.revives;
  check Alcotest.int "master_kills" r1.Chaos.master_kills r2.Chaos.master_kills;
  check Alcotest.int "takeovers" r1.Chaos.takeovers r2.Chaos.takeovers;
  check Alcotest.int "final_version" r1.Chaos.final_version r2.Chaos.final_version;
  check Alcotest.int "final_master" r1.Chaos.final_master r2.Chaos.final_master;
  check Alcotest.int "rpc_timeouts" r1.Chaos.rpc_timeouts r2.Chaos.rpc_timeouts;
  check Alcotest.int "rpc_retries" r1.Chaos.rpc_retries r2.Chaos.rpc_retries;
  check (Alcotest.list Alcotest.string) "violations" r1.Chaos.violations
    r2.Chaos.violations;
  check (Alcotest.float 0.0) "final clock" r1.Chaos.final_clock r2.Chaos.final_clock;
  check Alcotest.int "sim events" r1.Chaos.sim_events r2.Chaos.sim_events

(* The scheduling ablation at depth 2, run twice with the same seed:
   the throughput counters, final simulated clock, engine event count,
   and the span-chain counter fingerprint
   (sched.submit/sched.match/wexec.start/wexec.complete) must repeat
   bit-for-bit — the harness builds its own session, tracer, and
   instance tree, so this covers the whole stack end to end. *)
let sched_cfg =
  { Sched.default with Sched.seed = 11; nodes = 8; depth = 2; children = 2; tasks = 60 }

let test_sched_run_twice () =
  let r1 = Sched.run sched_cfg in
  let r2 = Sched.run sched_cfg in
  check Alcotest.int "acked" r1.Sched.r_acked r2.Sched.r_acked;
  check (Alcotest.float 0.0) "jobs/s" r1.Sched.r_jobs_per_s r2.Sched.r_jobs_per_s;
  check (Alcotest.float 0.0) "makespan" r1.Sched.r_makespan r2.Sched.r_makespan;
  check (Alcotest.float 0.0) "final clock" r1.Sched.r_final_clock r2.Sched.r_final_clock;
  check Alcotest.int "sim events" r1.Sched.r_sim_events r2.Sched.r_sim_events;
  check Alcotest.int "sched cycles" r1.Sched.r_sched_cycles r2.Sched.r_sched_cycles;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "span chain counts" r1.Sched.r_spans r2.Sched.r_spans;
  if r1 <> r2 then Alcotest.fail "sched report drifted across same-seed runs"

let () =
  Alcotest.run "flux_determinism"
    [
      ( "golden",
        [
          Alcotest.test_case "fig2 workload repeats exactly" `Quick test_kap_run_twice;
          Alcotest.test_case "fig2 workload matches its goldens" `Quick test_kap_goldens;
          Alcotest.test_case "tracing on vs off is unobservable" `Quick
            test_trace_on_off_identical;
          Alcotest.test_case "chaos seed repeats exactly" `Quick test_chaos_run_twice;
          Alcotest.test_case "sched depth-2 ablation repeats exactly" `Quick
            test_sched_run_twice;
        ] );
    ]
