(** Checkpoint/requeue kill-schedule harness: a job that checkpoints
    through the KVS (fence + manifest, {!Flux_modules.Wexec.checkpoint})
    is killed at a seeded point and requeued from its newest verified
    manifest by {!Flux_core.Checkpoint.run_resilient}.

    Checked guarantees (breaches land in [r_violations]; empty = proved):
    zero acked-write loss, restart-equivalent reads from the serialized
    store in a fresh session, and monotonically advancing recovery
    points. The keys a committed manifest covers are acked into the
    run's {!History}, whose audit reads them back from both stores.
    Deterministic for a given config. *)

type kill_kind =
  | Node_mid_job  (** a worker rank dies while its tasks run *)
  | Master_mid_snapshot  (** the acting KVS master dies during a live capture *)
  | Between_ckpt_and_fence  (** a worker dies after a manifest commits, before the next fence *)

type config = {
  seed : int;
  size : int;
  fanout : int;
  kill : kill_kind option;  (** [None]: fault-free baseline (bench) *)
  manifests : bool;  (** [false]: plain fences, no manifests (bench baseline) *)
  workers : int list;
  per_rank : int;
  epochs : int;
  keys_per_epoch : int;
}
(** The KVS always runs {!Flux_kvs.Kvs_module.replicated_config}, so
    acked state survives master loss. Tasks write 96-byte values;
    checkpoint fences time out after 4 s; a killed rank is revived 1 s
    later; the job is requeued at most 3 times. *)

val default : config
(** 13 ranks, workers on ranks 2..5, 4 epochs, a node killed mid-job.
    Rank 0 (the wexec master), [size-2] (reads and captures) and
    [size-1] (which submits the job) are never killed. *)

type report = {
  r_kind : kill_kind option;
  r_kills : int;
  r_revives : int;
  r_attempts : int;
  r_requeues : int;
  r_ckpt_ok : int;
  r_ckpt_failed : int;
  r_acked_epoch : int;
  r_resume_epochs : int list;  (** manifest epochs resumed from, oldest first *)
  r_keys_checked : int;
  r_snapshot_objects : int;
  r_snapshot_bytes : int;
  r_recovery_time : float;  (** first kill to job completion; 0 when fault-free *)
  r_ckpt_mean : float;  (** mean checkpoint (or plain-fence) latency *)
  r_ckpt_p50 : float;
  r_violations : string list;
  r_final_version : int;
  r_final_root : string;
  r_final_clock : float;
  r_sim_events : int;
}

val validate : config -> (unit, string) result
(** Workers present and clear of the never-killed ranks; positive counts. *)

val run : config -> report
(** Raises [Invalid_argument] when {!validate} fails. *)

val row : report -> Harness.row

val harness : Harness.t
(** The bench sweep: checkpoint overhead over plain fences, and recovery
    time vs checkpoint depth. *)
