(** The [wexec] comms module (Table I): remote processes are launched in
    bulk, monitored, can receive signals, and have their standard output
    captured in the KVS.

    "Programs" are OCaml functions registered by name (the simulated
    equivalent of executables); each launched task runs as a simulated
    process and may sleep, use the KVS, enter barriers, etc. Task output
    written through {!printf} lands in the KVS under
    [<job_key jobid>.<rank>-<index>.stdout] when the task finishes,
    along with its exit code under [.exit] (see {!job_key}). *)

type proc_ctx = {
  px_rank : int;  (** rank the task runs on *)
  px_local_index : int;  (** task index on this rank *)
  px_global_index : int;  (** task index across the job *)
  px_ntasks : int;  (** total tasks in the job *)
  px_jobid : string;
  px_args : Flux_json.Json.t;
  px_api : Flux_cmb.Api.t;  (** CMB access from inside the task *)
  px_kvs : Flux_kvs.Client.t;  (** KVS access from inside the task *)
  px_printf : string -> unit;  (** captured standard output *)
}

exception Task_failure of string
(** Raise inside a program to exit non-zero. *)

val job_key : string -> string
(** [job_key jobid] is the KVS directory that holds the job's records:
    [lwj.b<h>.<jobid>], where [h] is [Hashtbl.hash jobid mod 16]. Every
    writer and reader of job records (the tasks' [stdout] and [exit],
    {!Flux_core.Instance}'s [state]) goes through it.

    The buckets bound the directories a commit rebuilds. A commit
    re-prints and re-hashes every directory on its key's path, and
    with one flat [lwj.<jobid>] listing, [lwj] (or, for the dotted ids
    of a nested instance's jobs, the parent job's directory) held one
    entry per job ever run, so each task's commit cost grew with the
    jobs before it. Spread over 16 buckets, a directory on a record's
    path holds about 1/16 of one parent's jobs, which keeps it under
    the paper's Fig. 4(b) cap of 128 entries up to about 2,000 jobs
    per parent. The bucket count is a constant, and the unseeded hash
    gives every run the same layout. *)

val register_program : string -> (proc_ctx -> unit) -> unit

type t

val load : Flux_cmb.Session.t -> unit -> t array
(** Installs the module at every rank (rank 0 is the job master) and
    registers a liveness watch: when a rank goes down, its unreported
    tasks are accounted as failures at the master — so a job spanning a
    dead node still completes — and the dead rank's local tasks are
    destroyed so a later revival cannot double-report. *)

val set_tracer_all : t array -> Flux_trace.Tracer.t option -> unit
(** Emit category ["wexec"] task-lifecycle events: ["start"] when a rank
    begins its local tasks (child span of the launching RPC's ctx, which
    rides the message envelope out-of-band — enabling tracing never
    perturbs payload sizes or simulated timing), ["complete"] at the
    master when the job's completion total is reached, and
    ["death_account"] when a dead rank's unreported tasks are written
    off. Together with {!Flux_core.Instance.set_tracer} this yields the
    per-job [sched.submit -> sched.match -> wexec.start ->
    wexec.complete] span chain. *)

val set_metrics_all : t array -> Flux_trace.Metrics.t -> unit
(** Per-rank counters: [wexec.jobs.launched] / [wexec.jobs.completed],
    [wexec.tasks.started] / [.done] / [.failed] / [.killed] /
    [.death_accounted]. *)

type completion = {
  c_jobid : string;
  c_ntasks : int;
  c_failed : int;  (** tasks that raised *)
}

val run :
  Flux_cmb.Api.t ->
  jobid:string ->
  prog:string ->
  ?args:Flux_json.Json.t ->
  ?per_rank:int ->
  ?trace_ctx:Flux_trace.Tracer.ctx ->
  ranks:int list ->
  unit ->
  (completion, string) result
(** Launch [per_rank] (default 1) tasks of [prog] on each listed rank
    and block until the whole job completes. Must run inside a
    {!Flux_sim.Proc} body. Job ids must be fresh and form valid topic
    components: letters, digits, [-], [_], and dots, as in nested
    instances' [<parent>.<n>]. [run] waits for the exact topic
    [wexec.complete.<jobid>] ({!Flux_cmb.Api.subscribe_once}), so job
    [a.b]'s completion does not end [a]'s wait. [trace_ctx] links the whole launch (run RPC, per-rank starts,
    completion event) into the caller's causal trace. *)

val kill : Flux_cmb.Api.t -> jobid:string -> unit
(** Deliver a kill signal: every task of the job is terminated; the job
    then completes with the killed tasks counted as failed. *)

(** {1 Checkpoint manifests}

    The SCR-style application pattern: tasks periodically fence, and one
    task records the fence's root hash as a {e manifest} under a
    reserved [ckpt.] KVS directory. Because KVS objects are immutable
    and content-addressed, the recorded root names a complete,
    consistent cut of the job's state for free — restart is "resume
    from the newest verified manifest". *)

type manifest = {
  m_job : string;
  m_epoch : int;  (** checkpoint ordinal within the job *)
  m_version : int;  (** KVS root version at the fence *)
  m_root : string;  (** root hash (hex) at the fence *)
}

val manifest_key : string -> int -> string
(** [manifest_key jobid epoch] — the manifest's KVS key, also used as
    the checkpoint fence name. *)

val manifest_to_json : manifest -> Flux_json.Json.t
val manifest_of_json : Flux_json.Json.t -> manifest option

val checkpoint : ?timeout:float -> proc_ctx -> epoch:int -> (int, string) result
(** Collective checkpoint: all [px_ntasks] tasks fence under
    [manifest_key px_jobid epoch]; task 0 then writes the manifest at
    that key (and at the [ckpt.<jobid>.latest] pointer, which may be
    torn if the writer dies mid-sequence) and commits. Returns the resulting
    root version. Pass [timeout] so tasks survive a fence stranded by a
    dead participant — the fence is then aborted up the tree and the
    caller may retry or give up (see {!Flux_kvs.Client.fence}). *)

val newest_manifest :
  Flux_kvs.Client.t -> jobid:string -> max_epoch:int -> manifest option
(** Scan epochs [max_epoch] down to [0] and return the first manifest
    that verifies: it parses, names its own epoch, carries a well-formed
    root hash, and does not claim a version newer than the store serving
    the lookup. *)
