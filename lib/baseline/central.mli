(** Baseline: the traditional centralized RJMS (SLURM-style).

    One monolithic controller holds the flat node list of the entire
    center and makes every scheduling decision itself. Its decision cost
    scales with the total resource and queue size and is serialized on a
    single controller CPU — the property that limits throughput on large
    centers and motivates the paper's hierarchical scheme. Used as the
    comparison point in the scheduler-parallelism ablation. *)

type t

val create : Flux_sim.Engine.t -> nnodes:int -> ?policy:string -> unit -> t
(** A controller over [nnodes] nodes. No comms session is modeled —
    the traditional design keeps its own monolithic daemon
    infrastructure; decision costs use Flux instances' default model
    ({!Flux_core.Instance.default_cost_model}) so comparisons isolate
    the architecture, not the constants. *)

val submit_plan : t -> Flux_core.Job.submission list -> unit
(** Feed a workload ([Sleep] payloads only — the baseline cannot nest). *)

type stats = {
  bs_completed : int;
  bs_mean_wait : float;
  bs_makespan : float;
  bs_sched_cycles : int;
  bs_node_seconds : float;
}

val stats : t -> stats
