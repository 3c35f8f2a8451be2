(** Checkpoint/requeue driver — the SCR-style resilience workload run as
    a first-class pattern: launch a job whose tasks checkpoint through
    {!Flux_modules.Wexec.checkpoint}, detect node death through the
    session's liveness plane, and requeue the job on the surviving ranks
    pinned to the newest verified manifest.

    Programs run under this driver should read the ["resume"] member of
    their args: when present it is a {!Flux_modules.Wexec.manifest}
    (as JSON) and the program should resume from epoch [m_epoch + 1],
    reading its state back from the keys the manifest's fence covered.
    Non-object args are wrapped as [{"base": args, "resume": ...}] on
    requeue. *)

val attempt_jobid : string -> int -> string
(** [attempt_jobid base k] — the jobid of requeue attempt [k]: [base]
    itself for [k = 0], [<base>.r<k>] after. Fresh per attempt so a
    requeued job's checkpoint fences cannot collide with aggregation
    state stranded by the attempt it replaces. *)

val with_resume :
  Flux_json.Json.t -> Flux_modules.Wexec.manifest option -> Flux_json.Json.t
(** Merge a resume manifest into a job's args under the ["resume"]
    member (non-object args are wrapped as [{"base": args; ...}]);
    identity when the manifest is [None]. *)

val newest_across :
  Flux_kvs.Client.t ->
  jobids:string list ->
  max_epoch:int ->
  Flux_modules.Wexec.manifest option
(** The newest verified manifest found across an attempt chain: each
    jobid is scanned with {!Flux_modules.Wexec.newest_manifest} and the
    highest epoch wins. Blocking — must run inside a
    {!Flux_sim.Proc} body. *)

type outcome = {
  o_jobid : string;  (** jobid of the attempt that completed *)
  o_attempts : int;  (** total attempts, including the first *)
  o_completion : Flux_modules.Wexec.completion;
  o_resumed_from : Flux_modules.Wexec.manifest option;
      (** the manifest the final attempt resumed from, if any *)
}

val run_resilient :
  Flux_cmb.Api.t ->
  kvs:Flux_kvs.Client.t ->
  ?metrics:Flux_trace.Metrics.t ->
  ?max_epoch:int ->
  jobid:string ->
  prog:string ->
  ?per_rank:int ->
  ranks:int list ->
  unit ->
  (outcome, string) result
(** Run [prog] to completion, requeueing up to 3 times. The first
    attempt gets [null] args. Each requeue runs under a fresh jobid
    ([<jobid>.r<k>], so its checkpoint fences cannot collide with
    aggregation state stranded by the dead attempt), restricted to ranks
    live at resubmission, with args [{"resume": manifest}] carrying the
    newest manifest found across all prior attempts (epochs scanned down
    from [max_epoch], default 64).

    A liveness watch kills the running attempt when one of its ranks
    goes down: the wexec master's death accounting completes the job
    with failures, and tasks parked in a fence the dead rank can no
    longer join are destroyed rather than left hanging. Each requeue
    increments the ["ckpt.requeue"] counter on [metrics] when given.

    Returns the final attempt's completion — with [c_failed = 0] if the
    job eventually ran clean, or the failing completion once the requeue
    budget is exhausted. Must run inside a {!Flux_sim.Proc} body. *)
