(** Sharded-KVS harnesses over {!Flux_kvs.Volumes}: the goodput-vs-shards
    soak (does distributing the master buy capacity under admission
    control?) and the cross-shard fence chaos schedule (does the
    two-phase epoch merge keep its guarantees when a shard master dies
    mid-fence?). Both are deterministic for a given config. *)

(** {1 Goodput-vs-shards soak} *)

type soak_config = {
  seed : int;
  size : int;
  fanout : int;
  shards : int;
  producers : int list;
  rate : float;  (** aggregate offered ops/s *)
  duration : float;
  value_bytes : int;
  op_timeout : float;
  op_attempts : int;
  kvs : Flux_kvs.Kvs_module.config;
}

val soak_default : soak_config
(** 32 ranks, 8 producers, one shard, offering 2x one master's
    10k ops/s capacity for 0.4 s with admission control on. *)

type soak_report = {
  shards : int;
  offered : int;
  acked : int;
  shed : int;
  failed : int;
  goodput : float;
  ack_p50 : float;
  ack_p99 : float;
  admission_sheds : int;
  intake_hwm : int;  (** max over shard masters *)
  rpc_busy_retries : int;
  lost_acks : int;
  drained : bool;
  violations : string list;
      (** bounded intake, zero acked-write loss, every offered op
          resolved, drained queues; empty = proved *)
  final_clock : float;
  sim_events : int;
}

val soak : soak_config -> soak_report
(** Raises [Invalid_argument] without producers or with a non-positive
    rate or duration. *)

(** {1 Cross-shard fence chaos} *)

type chaos_config = {
  cseed : int;
  csize : int;
  cfanout : int;
  cshards : int;
  cclients : int list;
  crounds : int;
  cvalue_bytes : int;
  round_gap : float;  (** mean inter-round gap per client *)
  revive_after : float;  (** kill-to-revive delay *)
  ckvs : Flux_kvs.Kvs_module.config;
}

val chaos_default : chaos_config
(** 12 ranks, 2 shards, 3 clients, 6 rounds, setroot delta replication
    so acked fences survive a shard-master loss. *)

type chaos_report = {
  fences_ok : int;
  fences_failed : int;
  kills : int;
  revives : int;
  takeovers : int;  (** sum over volumes of max mastership epoch *)
  xepoch : int;  (** cross-shard fence epoch at rank 0 after quiescence *)
  keys_checked : int;
  cviolations : string list;
      (** read-your-writes, fence atomicity, monotonic reads,
          convergence and identical composites at every rank *)
  final_versions : int list;  (** per volume *)
  final_roots : string list;  (** per volume, hex *)
  cfinal_clock : float;
  csim_events : int;
}

val chaos : chaos_config -> chaos_report
(** Raises [Invalid_argument] with fewer than two shards or a client
    rank out of range. *)

val harness : Harness.t
(** The bench sweep: the soak at 1, 2 and 4 shards; goodput must scale
    at least 1.8x from 1 to 4. *)
