(** Chaos harness: seeded randomized fault schedules over a live KVS
    workload, checking the paper's consistency guarantees as the faults
    land.

    A schedule runs [clients] concurrent writer/reader processes on
    protected ranks (never killed) while a fault injector kills and
    revives the other ranks — including the KVS master, and including
    one guaranteed master kill while a commit is in flight. Every
    client records its operations in the run's {!History}, which checks
    them as they land:

    - {b monotonic reads}: the version it observes never decreases;
    - {b read-your-writes}: a commit is acked at a version newer than
      any it saw, and its key reads back its value;
    - {b lost writes}: previously committed keys keep their values;
    - {b fence atomicity}: when a fence completes, every participant's
      contribution is visible (all-or-nothing).

    A read that errors counts in [gets_failed], not as a violation. A
    commit or fence that errors is {e indeterminate} — the paper's
    guarantees say nothing about it, so its key is never audited.

    After the schedule, every dead rank is revived and the run must
    converge: one master, all ranks at the same (epoch, version), and a
    previously-dead rank must serve every acked key correctly from its
    rejoined state.

    Invariant breaches are collected in [violations] (empty = the
    schedule proved out); the harness never raises on a breach so
    benches can report instead of abort.

    The schedule's shape is fixed: 15 ranks in a binary tree running
    {!Flux_kvs.Kvs_module.replicated_config} so acked commits survive
    master loss; every 6th round is a collective fence with an 8 s
    deadline; every third value is a 400-byte string (not inlined); and
    the injector acts every 0.8 s on average, keeps at most 3 ranks
    dead, and aims 40% of its kills at the master. *)

type config = {
  seed : int;  (** everything stochastic derives from this *)
  clients : int list;  (** protected client ranks — never killed *)
  rounds : int;  (** put/commit rounds per client *)
  duration : float;  (** injector stops after this much virtual time *)
}

val default : config
(** 3 clients on leaf ranks, 24 rounds, 25 s of faults. *)

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
    report. Raises [Invalid_argument] unless the clients are present and
    in range and there are one or more rounds. *)

val harness : Harness.t
(** The bench sweep: 10 seeds ([fast]: 3) at the default config. *)
