(* Scheduler ablation correctness: the hierarchical pilot-job harness
   must account every task exactly once — with and without a leaf
   instance losing a worker mid-batch — and the trace span chain must
   decompose scheduler-hop latency per hierarchy level. *)

module Sched = Flux_harness.Sched
module Workload = Flux_core.Workload
module Rng = Flux_util.Rng
module Job = Flux_core.Job

let check = Alcotest.check

let base =
  { Sched.default with Sched.nodes = 16; depth = 2; children = 2; tasks = 120 }

(* --- Fault-free ablation --------------------------------------------------- *)

let test_all_tasks_acked () =
  let r = Sched.run base in
  (match r.Sched.r_violations with
  | [] -> ()
  | vs -> Alcotest.failf "%d violations:\n%s" (List.length vs) (String.concat "\n" vs));
  check Alcotest.int "every task acked" base.Sched.tasks r.Sched.r_acked;
  check Alcotest.int "leaves" 4 r.Sched.r_leaves;
  check Alcotest.bool "throughput measured" true (r.Sched.r_jobs_per_s > 0.0);
  (* wexec saw every task exactly once. *)
  check Alcotest.int "wexec started = tasks" base.Sched.tasks r.Sched.r_wexec_started;
  check Alcotest.int "wexec done = tasks" base.Sched.tasks r.Sched.r_wexec_done

let test_span_chain_complete () =
  let r = Sched.run base in
  let count name =
    match List.assoc_opt name r.Sched.r_spans with
    | Some n -> n
    | None -> Alcotest.failf "span counter %s missing" name
  in
  (* Every task job traverses submit -> match; child-instance jobs add
     their own submits/matches at the upper levels (2 at depth 1 under
     the root, 4 at depth 2). *)
  check Alcotest.int "sched.submit spans" (base.Sched.tasks + 6) (count "sched.submit");
  check Alcotest.int "sched.match spans" (base.Sched.tasks + 6) (count "sched.match");
  check Alcotest.int "wexec.start spans" base.Sched.tasks (count "wexec.start");
  check Alcotest.int "wexec.complete spans" base.Sched.tasks (count "wexec.complete");
  (* The decomposition must report every level of the tree, and the
     leaf level must carry exactly the task matches. *)
  let depths = List.map (fun lv -> lv.Sched.lv_depth) r.Sched.r_levels in
  check (Alcotest.list Alcotest.int) "levels present" [ 0; 1; 2 ] depths;
  (match List.rev r.Sched.r_levels with
  | leaf :: _ -> check Alcotest.int "leaf-level matches" base.Sched.tasks leaf.Sched.lv_jobs
  | [] -> Alcotest.fail "no level decomposition");
  check Alcotest.bool "match->start hop measured" true (r.Sched.r_hop_match_start_mean > 0.0);
  check Alcotest.bool "start->complete hop measured" true
    (r.Sched.r_hop_start_complete_mean > 0.0)

let test_hierarchy_beats_central () =
  (* At depth 2 the leaf schedulers decide in parallel over small pools;
     the centralized controller (one flat instance on pure timers) pays
     the full start cost serially. The crossover is the paper's core
     claim, so it is a test, not just a bench observation. *)
  let cfg = { base with Sched.tasks = 300 } in
  let h = Sched.run cfg in
  let c = Sched.run { cfg with Sched.depth = 0; task_kind = Sched.Sleep_tasks } in
  check Alcotest.int "central completed everything" cfg.Sched.tasks c.Sched.r_acked;
  if h.Sched.r_jobs_per_s <= c.Sched.r_jobs_per_s then
    Alcotest.failf "hierarchy %.1f jobs/s did not beat central %.1f jobs/s"
      h.Sched.r_jobs_per_s c.Sched.r_jobs_per_s

let test_sleep_tasks_mode () =
  (* The synthetic mode must produce the same stream shape without a
     wexec stack: at depth 0 it is the centralized comparator. *)
  let r = Sched.run { base with Sched.task_kind = Sched.Sleep_tasks; tasks = 60 } in
  check Alcotest.int "every task acked" 60 r.Sched.r_acked;
  check Alcotest.int "no wexec launches" 0 r.Sched.r_wexec_started;
  check (Alcotest.list Alcotest.string) "no violations" [] r.Sched.r_violations

let test_pilot_stream_shapes () =
  (* Same seed: the App stream and the Sleep stream draw identical
     durations and arrivals — the fairness precondition for the
     central-vs-hierarchical comparison. *)
  let durs prog =
    List.map
      (fun (s : Job.submission) ->
        match s.Job.sub_payload with
        | Job.Sleep d -> d
        | Job.App { duration; _ } -> duration
        | _ -> Alcotest.fail "unexpected payload in pilot stream")
      (Workload.pilot_tasks (Rng.create 5) ~n:40 ~prog ())
  in
  check (Alcotest.list (Alcotest.float 0.0)) "durations identical" (durs "") (durs "p");
  (* Round-robin nesting conserves the stream. *)
  let stream = Workload.pilot_tasks (Rng.create 5) ~n:40 ~prog:"p" ()
  and rebuilt = ref 0 in
  let rec count (subs : Job.submission list) =
    List.iter
      (fun (s : Job.submission) ->
        match s.Job.sub_payload with
        | Job.Child { workload; _ } -> count workload
        | Job.App _ -> incr rebuilt
        | _ -> ())
      subs
  in
  count (Workload.nest ~depth:2 ~children:2 ~policy:"fcfs" ~nnodes:16 stream);
  check Alcotest.int "nesting conserves tasks" 40 !rebuilt

(* --- Leaf-kill chaos sweep ------------------------------------------------- *)

let chaos_base =
  { base with
    Sched.tasks = 160;
    kill_leaf = true;
    kill_frac = 0.25;
    revive_after = 1.0
  }

let chaos_seeds = List.init 8 (fun i -> 1 + (7 * i))

let test_chaos_seed seed () =
  let r = Sched.run { chaos_base with Sched.seed } in
  (match r.Sched.r_violations with
  | [] -> ()
  | vs ->
    Alcotest.failf "seed %d: %d violations:\n%s" seed (List.length vs)
      (String.concat "\n" vs));
  check Alcotest.int
    (Printf.sprintf "seed %d: zero lost tasks" seed)
    chaos_base.Sched.tasks r.Sched.r_acked;
  check Alcotest.int (Printf.sprintf "seed %d: the assassin struck" seed) 1 r.Sched.r_kills;
  check Alcotest.int
    (Printf.sprintf "seed %d: the victim revived" seed)
    r.Sched.r_kills r.Sched.r_revives

let test_chaos_requeues_exercised () =
  (* At least one seed of the sweep must actually route work around the
     dead rank — otherwise the sweep proves nothing. *)
  let requeued =
    List.exists
      (fun seed ->
        let r = Sched.run { chaos_base with Sched.seed } in
        r.Sched.r_requeues >= 1 && r.Sched.r_failed_jobs >= 1)
      chaos_seeds
  in
  check Alcotest.bool "some seed exercised the requeue path" true requeued

let test_chaos_hop_means () =
  (* A revived rank replays the starts of jobs the master already
     failed; such a late start must not enter either hop mean. *)
  List.iter
    (fun seed ->
      let r = Sched.run { chaos_base with Sched.seed } in
      let ms = r.Sched.r_hop_match_start_mean and sc = r.Sched.r_hop_start_complete_mean in
      check Alcotest.bool
        (Printf.sprintf "seed %d: match->start %g s in [0, 1 ms)" seed ms)
        true
        (ms >= 0.0 && ms < 1e-3);
      check Alcotest.bool
        (Printf.sprintf "seed %d: start->complete %g s >= 0" seed sc)
        true (sc >= 0.0))
    chaos_seeds

let test_chaos_deterministic () =
  let cfg = { chaos_base with Sched.seed = 15 } in
  let a = Sched.run cfg and b = Sched.run cfg in
  if a <> b then Alcotest.fail "chaos run report drifted across same-seed runs";
  check Alcotest.int "requeues repeat" a.Sched.r_requeues b.Sched.r_requeues

let () =
  Alcotest.run "flux_sched"
    [
      ( "ablation",
        [
          Alcotest.test_case "every task acked exactly once" `Quick test_all_tasks_acked;
          Alcotest.test_case "span chain covers every level" `Quick test_span_chain_complete;
          Alcotest.test_case "hierarchy beats central at depth 2" `Quick
            test_hierarchy_beats_central;
          Alcotest.test_case "sleep-task mode" `Quick test_sleep_tasks_mode;
          Alcotest.test_case "pilot stream shapes agree" `Quick test_pilot_stream_shapes;
        ] );
      ( "chaos",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "seed %d: leaf kill, zero lost or double-acked" seed)
              `Quick (test_chaos_seed seed))
          chaos_seeds
        @ [
            Alcotest.test_case "requeue path exercised" `Quick test_chaos_requeues_exercised;
            Alcotest.test_case "hop means skip replayed starts" `Quick test_chaos_hop_means;
            Alcotest.test_case "chaos seed repeats exactly" `Quick test_chaos_deterministic;
          ] );
    ]
