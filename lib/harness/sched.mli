(** Center-scale scheduling ablation harness: a pilot-style open-loop
    stream of sub-second single-node tasks fed either to a hierarchy of
    nested Flux instances or to the centralized comparator, measuring
    jobs/s, makespan and — from the tracer's causal span chain
    (sched.submit -> sched.match -> wexec.start -> wexec.complete) —
    per-level scheduler-hop latency.

    With [kill_leaf], a seeded assassin kills a worker rank inside one
    leaf instance mid-batch and a requeue monitor moves its failed tasks
    to surviving sibling leaves. Checked (breaches land in
    [r_violations]): every task acked exactly once, every acked task
    executed, no execution after its task's ack.

    The centralized comparator stands in for a traditional monolithic
    RJMS (SLURM, MOAB): the same stream run at depth 0 with
    [Sleep_tasks], so one flat root instance decides for the whole pool
    and queue on one scheduler CPU, under Flux's cost model, with no
    launch stack. *)

type task_kind =
  | Sleep_tasks
      (** synthetic: pure scheduler study, no launch stack; at depth 0,
          the centralized comparator *)
  | Wexec_tasks  (** real launches through wexec with the full span chain *)

type config = {
  seed : int;
  nodes : int;  (** session size = compute nodes of the center *)
  fanout : int;  (** CMB tree fanout *)
  depth : int;  (** levels of child instances (0 = one flat instance) *)
  children : int;  (** instance-tree fanout per level *)
  tasks : int;
  policy : string;
  task_kind : task_kind;
  kill_leaf : bool;  (** kill a worker rank of leaf 0 mid-batch *)
  kill_frac : float;  (** strike once this fraction of tasks has acked *)
  revive_after : float;
}
(** Every run is traced, submits its {!Flux_core.Workload.pilot_tasks}
    stream as one batch at t=0, uses the default scheduler cost model,
    and requeues a failed task at most 5 times. *)

val default : config
(** 16 nodes, depth 2 with 2 children per level, 200 wexec tasks,
    FCFS. *)

type level = {
  lv_depth : int;  (** 0 = root *)
  lv_jobs : int;  (** matches observed at this level *)
  lv_submit_match_mean : float;  (** scheduler-hop latency (wait in queue) *)
  lv_submit_match_p95 : float;
}

type report = {
  r_depth : int;
  r_children : int;
  r_leaves : int;
  r_tasks : int;
  r_acked : int;  (** logical tasks whose job completed *)
  r_failed_jobs : int;  (** job attempts that ended Failed (pre-requeue) *)
  r_requeues : int;
  r_kills : int;
  r_revives : int;
  r_makespan : float;  (** last task completion - first task submission *)
  r_jobs_per_s : float;
  r_mean_wait : float;
  r_sched_cycles : int;  (** summed over every instance in the tree *)
  r_levels : level list;  (** per-level hop decomposition, root first *)
  r_hop_match_start_mean : float;  (** sched.match -> wexec.start *)
  r_hop_start_complete_mean : float;
      (** wexec.start -> wexec.complete. Both hop means leave out a
          start that lands after its job's complete: a revived rank
          replaying a job the master already failed. *)
  r_spans : (string * int) list;  (** span-chain counter fingerprint *)
  r_wexec_started : int;
  r_wexec_done : int;
  r_violations : string list;
  r_final_clock : float;
  r_sim_events : int;
}

val run : config -> report
(** Raises [Invalid_argument] unless the tree is feasible with depth
    0..4, the counts are positive, the policy is known and [kill_leaf]
    comes only with [Wexec_tasks]. The center comes from
    {!Flux_core.Center.create}. *)

val harness : Harness.t
(** The bench sweep: the centralized comparator vs depth 0..3, fanout
    2/4/8 at depth 1, and a leaf-kill chaos row; depth 2 must beat the
    comparator's jobs/s. [flux sched --central] prints the comparator's
    row after the configured run's. *)
