(** Chaos harness: seeded randomized fault schedules over a live KVS
    workload, checking the paper's consistency guarantees as the faults
    land.

    A schedule runs [clients] concurrent writer/reader processes on
    protected ranks (never killed) while a fault injector kills and
    revives the other ranks — including the KVS master, and including
    one guaranteed master kill while a commit is in flight. Every
    client checks, op by op:

    - {b monotonic reads}: the version it observes never decreases;
    - {b read-your-writes}: a key it committed reads back its value;
    - {b lost writes}: previously committed keys keep their values;
    - {b fence atomicity}: when a fence completes, every participant's
      contribution is visible (all-or-nothing).

    A commit or fence that errors is {e indeterminate} — the paper's
    guarantees say nothing about it, so its keys are dropped from the
    model rather than asserted either way.

    After the schedule, every dead rank is revived and the run must
    converge: one master, all ranks at the same (epoch, version), and a
    previously-dead rank must serve every surviving model key correctly
    from its rejoined state.

    Invariant breaches are collected in [violations] (empty = the
    schedule proved out); the harness never raises on a breach so
    benches can report instead of abort. *)

module Kvs = Flux_kvs.Kvs_module

type config = {
  seed : int;  (** everything stochastic derives from this *)
  size : int;  (** session ranks *)
  fanout : int;
  clients : int list;  (** protected client ranks — never killed *)
  rounds : int;  (** put/commit rounds per client *)
  fence_every : int;  (** every Nth round is a collective fence; 0 = never *)
  value_bytes : int;  (** size of the periodic large (non-inlined) values *)
  fault_mean : float;  (** mean virtual seconds between injector actions *)
  duration : float;  (** injector stops after this much virtual time *)
  max_dead : int;  (** cap on concurrently dead ranks *)
  master_kill_bias : float;  (** probability an injector kill targets the master *)
  op_timeout : float;  (** client-side deadline for fences *)
  kvs : Kvs.config;
}

val default : config
(** 15 ranks, 3 clients on leaf ranks, delta replication enabled
    ([setroot_delta_max = max_int]) so acked commits survive master
    loss. *)

type report = {
  commits_ok : int;
  commits_indeterminate : int;
  fences_ok : int;
  fences_indeterminate : int;
  gets_ok : int;
  gets_failed : int;  (** reads that errored (no data returned) *)
  kills : int;
  revives : int;
  master_kills : int;  (** kills that hit the acting master *)
  takeovers : int;  (** final mastership epoch *)
  final_version : int;
  final_master : int;
  keys_checked : int;  (** model keys verified in the final phase *)
  violations : string list;  (** consistency breaches; empty = proved *)
  rpc_timeouts : int;
  rpc_retries : int;
  dead_letters : int;
  dropped : int;
  final_clock : float;  (** virtual time when the run converged *)
  sim_events : int;  (** engine callbacks fired (a determinism fingerprint) *)
}

val run : config -> report
(** Deterministic for a given config: same seed, same schedule, same
    report. *)

val harness : Harness.t
(** The bench sweep: 10 seeds ([fast]: 3) at the default config. *)
