(** Overload/soak harness: open-loop producers drive the KVS write path
    past the master's capacity while every overload-protection layer is
    engaged, and the run is checked against the guarantees shedding must
    not break.

    Producers inject [kvs.mput] streams at a configured aggregate rate
    — open loop, so offered load does not slacken as queues fill, which
    is the regime closed-loop clients can never reach. The protection
    stack under test:

    - bounded per-link queues on the RPC plane ({!Flux_sim.Net.set_link_limits});
    - credit-based flow control on the request tree
      ({!Flux_cmb.Session.flow_config});
    - master admission control
      ({!Flux_kvs.Kvs_module.config.admission_max_intake}), whose busy
      rejections carry a [retry_after] hint the RPC layer honours.

    Checked invariants (breaches land in [violations]; empty = proved):

    - {b bounded occupancy}: every configured queue's high-water mark
      stays within its cap;
    - {b zero acked-write loss}: the run's {!History} reads every
      acknowledged mput back after the run drains — shedding may reject
      offered load, never acknowledged load;
    - {b monotonic reads}: a monitor polls [get_version] through the
      storm and the history flags any version regression;
    - {b eventual drain}: once arrivals stop, every stash and intake
      queue empties and every offered op resolves (ack, busy, or
      timeout).

    Deterministic for a given config: same seed, same arrivals, same
    report. *)

module Session = Flux_cmb.Session
module Net = Flux_sim.Net
module Kvs = Flux_kvs.Kvs_module

type profile =
  | Sustained  (** constant-rate Poisson arrivals *)
  | Bursty
      (** square-wave modulation: each 50 ms period spends half at a
          peak and half at a trough a quarter of it, hammering the
          queues while the average stays at the configured rate *)

(** Producers write 512-byte padded values (above the inline
    threshold) with idempotent [kvs.mput]s of up to 6 transmissions and
    a 1 s deadline per attempt, over a binary tree. *)
type config = {
  seed : int;  (** everything stochastic derives from this *)
  size : int;  (** session ranks *)
  producers : int list;  (** ranks injecting streams (never rank 0) *)
  rate : float;  (** aggregate offered ops/second across producers *)
  duration : float;  (** injection window, virtual seconds *)
  profile : profile;
  flow : Session.flow_config option;  (** TBON credit window; [None] = off *)
  link_limits : int option;  (** RPC-plane in-flight messages per link; [None] = off *)
  kvs : Kvs.config;  (** admission control lives here *)
  chaos_kill : bool;
      (** overlay one interior-rank kill/revive mid-run, proving the
          invariants hold across a fault under load *)
  telem : bool;
      (** run the live telemetry plane ({!Flux_modules.Telem}) in-band
          with the soak: rollups contend for the same links, credits,
          and admission gate; guarantee trips and chaos kills take
          flight-recorder dumps *)
  telem_interval : float;
      (** rollup epoch length in virtual seconds; [<= 0] (the default)
          picks [duration / 10]. The telemetry bench sweeps this — the
          plane's cost is proportional to rollup cadence. *)
}

val default : config
(** 64 ranks, 8 leaf producers, every protection layer on, and a 100 us
    serial apply so the master saturates at 10k ops/s — small enough to
    drive 2x past capacity in half a virtual second. *)

val master_capacity : config -> float
(** The master's apply-rate ceiling implied by the config, ops/second
    (1-tuple ops): the natural unit for choosing [rate] multiples. *)

type report = {
  offered : int;  (** ops injected *)
  acked : int;  (** ops acknowledged Ok *)
  shed : int;  (** ops rejected busy after retries *)
  failed : int;  (** other failures (timeouts) *)
  goodput : float;  (** acked ops / (injection + drain) window, ops/second *)
  ack_p50 : float;  (** median ack latency, seconds *)
  ack_p99 : float;
  admission_sheds : int;  (** master-gate busy rejections *)
  intake_hwm : int;
  flow_stash_hwm : int;
  link_depth_hwm : int;
  rpc_busy_retries : int;
  rpc_retries : int;
  rpc_timeouts : int;
  lost_acks : int;  (** acked writes that failed read-back — must be 0 *)
  drained : bool;  (** all queues empty after arrivals stopped *)
  violations : string list;  (** invariant breaches; empty = proved *)
  final_version : int;
  final_clock : float;
  sim_events : int;  (** engine callbacks fired (determinism fingerprint) *)
  telem_epochs : int;  (** rollup epochs finalized (0 with [telem] off) *)
  telem_alerts : int;
  telem_dumps : int;  (** flight-recorder dumps taken *)
}

val validate : config -> (unit, string) result
(** Producers present and in 1..size-1; positive rate and duration. *)

val run : config -> report
(** Raises [Invalid_argument] when {!validate} fails. *)

val row : report -> Harness.row

val harness : Harness.t
(** The bench sweep: goodput vs offered rate (0.5x, 1x, 2x capacity,
    bursty, and a chaos kill); goodput at 2x must keep half the 1x
    level. *)
