(* Uncertainty-Quantification ensemble: thousands of small jobs.

   The paper motivates hierarchical scheduling with exactly this
   workload: a monolithic controller serializes every job start, while
   Flux lets a parent lease resource blocks to child instances whose
   schedulers run in parallel. This example runs the same ensemble both
   ways and prints the comparison; the monolithic controller is one
   flat Flux instance over every node, paying Flux's cycle and start
   costs on its one scheduler CPU.

   Run with: dune exec examples/uq_ensemble.exe *)

module Rng = Flux_util.Rng
module Center = Flux_core.Center
module Instance = Flux_core.Instance
module Job = Flux_core.Job
module Jobspec = Flux_core.Jobspec
module Workload = Flux_core.Workload

let nodes = 64
let n_jobs = 1500

let ensemble () =
  (* 1-node members, ~0.3 s each: a scale-bridging/UQ style stream. *)
  List.map
    (fun (s : Job.submission) ->
      match s.Job.sub_payload with
      | Job.Sleep d -> { s with Job.sub_payload = Job.Sleep (Float.max 0.05 (d /. 8.0)) }
      | _ -> s)
    (Workload.uq_ensemble (Rng.create 7) ~n:n_jobs ~mean_duration:2.4 ())

let () =
  Printf.printf "ensemble: %d one-node jobs (%.0f node-seconds) on %d nodes\n\n" n_jobs
    (Workload.total_node_seconds (ensemble ()))
    nodes;

  (* Traditional centralized RJMS: one flat instance over every node. *)
  let flat = Center.create ~nodes () in
  Instance.submit_plan flat.Center.root (ensemble ());
  Center.run flat;
  let cs = Instance.stats flat.Center.root in
  Printf.printf "centralized controller : completed=%d makespan=%6.1fs mean_wait=%5.1fs (%d sched cycles on one CPU)\n"
    cs.Instance.st_completed cs.Instance.st_makespan cs.Instance.st_mean_wait
    cs.Instance.st_sched_cycles;

  (* Hierarchical Flux: the root leases 8-node blocks to 8 child
     instances; each child schedules its share independently. *)
  let c = Center.create ~nodes () in
  let parts = Workload.split_round_robin 8 (ensemble ()) in
  List.iter
    (fun workload ->
      ignore
        (Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:8 ())
           ~payload:(Job.Child { policy = "fcfs"; workload })
          : Job.t))
    parts;
  Center.run c;
  let fs = Instance.stats_recursive c.Center.root in
  Printf.printf
    "hierarchical flux (8x8): completed=%d makespan=%6.1fs mean_wait=%5.1fs (%d cycles across 9 parallel schedulers)\n"
    (fs.Instance.st_completed - 8) (* subtract the 8 wrapper jobs *)
    fs.Instance.st_makespan fs.Instance.st_mean_wait fs.Instance.st_sched_cycles;
  Printf.printf "\nscheduler parallelism speedup: %.2fx\n"
    (cs.Instance.st_makespan /. fs.Instance.st_makespan)
