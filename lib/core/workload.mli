(** Synthetic workload generators for scheduler studies.

    The paper motivates the hierarchy with diverse, dynamic workloads —
    in particular ensembles (Uncertainty Quantification, scale-bridging)
    of many small jobs rather than single monolithic ones. These
    generators produce such streams deterministically from a seed. *)

module Rng = Flux_util.Rng

val uq_ensemble : Rng.t -> n:int -> ?mean_duration:float -> unit -> Job.submission list
(** [n] single-node jobs with exponential durations (at least 1 s), all
    submitted at t=0, with walltime estimates twice the true
    duration. *)

val batch_mix :
  Rng.t -> n:int -> max_nodes:int -> ?mean_duration:float -> unit -> Job.submission list
(** A classic batch mix submitted at t=0: node counts log-uniform in
    [1, max_nodes], exponential durations, walltime estimates twice the
    true duration (users overestimate). *)

val pilot_tasks : Rng.t -> n:int -> ?prog:string -> unit -> Job.submission list
(** A pilot-style many-task stream (Merzky et al.): [n] single-node tasks
    with exponential sub-second durations (mean {!pilot_mean_duration},
    floor 0.01 s), all submitted at t=0. With [prog] each task is a wexec [App] launch whose args
    carry a stable logical task id ([tid] = stream index) for exactly-once
    accounting across requeues; without, [Sleep] payloads drawn from the
    identical random sequence — the same stream shape for baselines with
    no wexec stack. *)

val pilot_mean_duration : float
(** 0.1 s. *)

val nest :
  depth:int ->
  children:int ->
  policy:string ->
  nnodes:int ->
  Job.submission list ->
  Job.submission list
(** Wrap a task stream into [depth] levels of child instances fanning
    out [children] ways per level, splitting [nnodes] evenly; the tasks
    are dealt round-robin across the [children ^ depth] leaves.
    [depth = 0] returns the stream unchanged. *)

val split_round_robin : int -> Job.submission list -> Job.submission list list
(** Deal a stream across [k] child instances (for two-level setups). *)

val total_node_seconds : Job.submission list -> float
(** Work contained in a stream (sum of nnodes x duration). *)
