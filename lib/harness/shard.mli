(** Sharded-KVS harnesses over {!Flux_kvs.Volumes}: the goodput-vs-shards
    soak (does distributing the master buy capacity under admission
    control?) and the cross-shard fence chaos schedule (does the
    two-phase epoch merge keep its guarantees when a shard master dies
    mid-fence?). Both are deterministic for a given config. *)

(** {1 Goodput-vs-shards soak} *)

(** The soak's session is fixed at 32 ranks in a binary tree, with
    seed 1. Its {!Open_loop} producers offer 20k ops/s in aggregate —
    twice one master's 10k ops/s capacity (a 100 us serial apply) — as
    [kvs-<v>.mput]s of 256-byte values, each producer to one volume,
    round-robin. Admission control sheds past an intake of 256. *)
type soak_config = { shards : int; producers : int list; duration : float }

val soak_default : soak_config
(** 8 producers, one shard, 0.4 s of offered load. *)

type soak_report = {
  shards : int;
  load : Open_loop.summary;
  admission_sheds : int;
  intake_hwm : int;  (** max over shard masters *)
  rpc_busy_retries : int;
  drained : bool;
  violations : string list;
      (** bounded intake, zero acked-write loss, every offered op
          resolved, drained queues; empty = proved *)
  final_clock : float;
  sim_events : int;
}

val soak : soak_config -> soak_report
(** Raises [Invalid_argument] unless there are shards, the producers are
    in 0..31 and the duration is positive. *)

(** {1 Cross-shard fence chaos}

    The schedule is fixed but for its seed: 12 ranks in a binary tree, 2
    shards running {!Flux_kvs.Kvs_module.replicated_config} so acked
    fences survive a shard-master loss, and {!chaos_clients} each running
    {!chaos_rounds} rounds. A round writes one 64-byte value per shard
    and joins a cross-shard fence; rounds are 0.25 s apart on average.
    The seed picks the shard whose master dies mid-fence; odd seeds also
    kill an interior slave. Each victim is revived 0.6 s later. *)

val chaos_clients : int list
(** The client ranks: 9, 10 and 11. *)

val chaos_rounds : int
(** Fences per client: 6. *)

type chaos_report = {
  fences_ok : int;
  fences_failed : int;
  kills : int;
  revives : int;
  takeovers : int;  (** sum over volumes of max mastership epoch *)
  xepoch : int;  (** cross-shard fence epoch at rank 0 after quiescence *)
  keys_checked : int;
  cviolations : string list;
      (** read-your-writes, fence atomicity, monotonic reads and zero
          acked-write loss (checked by the run's {!History}),
          convergence and identical composites at every rank *)
  final_versions : int list;  (** per volume *)
  final_roots : string list;  (** per volume, hex *)
  cfinal_clock : float;
  csim_events : int;
}

val chaos : int -> chaos_report
(** [chaos seed] runs the schedule. *)

val harness : Harness.t
(** The bench sweep: the soak at 1, 2 and 4 shards; goodput must scale
    at least 1.8x from 1 to 4. *)
