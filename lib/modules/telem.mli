(** Live telemetry plane: in-band TBON metric rollups.

    Generalizes {!Mon}'s epoch scheme from one scripted scalar to
    whole {!Flux_trace.Metrics} registry slices. Every [interval]
    sim-seconds each rank diffs its own slice against the previous
    epoch and ships the delta up the tree; interior ranks merge child
    deltas with their own (per-child dedup, partial forward on a
    window timeout) so the root sees one merged cross-rank delta per
    epoch over O(log n) hops — run-time information flowing through
    the paper's reduction network rather than a side channel.

    The root folds each epoch into a bounded {!Flux_trace.Series}
    store and runs the {!Flux_trace.Detect} detectors (stragglers,
    queue-growth trends, silent ranks). Alerts surface as
    [telem.alert] trace events, [telem.alert.*] counters, and — once
    per (rank, cause) — {!Flux_trace.Flight} dumps. Marked-down ranks
    are flight-dumped at the instant of the mark.

    Everything is opt-in: nothing samples until {!start}, and runs
    that never load the module are bit-for-bit unchanged. *)

module Metrics = Flux_trace.Metrics
module Series = Flux_trace.Series
module Detect = Flux_trace.Detect

type config = {
  interval : float;  (** sim-seconds between rollup epochs *)
  window : int;  (** series ring capacity and trend window *)
  slope_threshold : float;  (** queue-growth alert slope, units/epoch *)
  straggler_metrics : string list;
      (** metrics scanned for cross-rank outliers (histogram mean per
          rank when present, else per-rank gauge values) *)
  queue_metrics : string list;
      (** metrics trend-checked at the root over the last [window]
          epochs *)
}

val default_config : config
(** interval 0.1 s, window 64, slope 1.0/epoch, no metrics watched
    (detectors idle until told what matters). Fixed: the straggler
    detector flags ranks beyond median + 4 * MAD, and an epoch's
    reduction forwards a partial after [interval /. 2]. *)

type t

val load : Flux_cmb.Session.t -> ?config:config -> unit -> t array
(** Load the module on every rank (index = rank; index 0 is the
    rollup master). Registers a liveness watch that flight-dumps any
    rank at the moment it is marked down (once a recorder is attached
    via {!set_flight_all}). Sampling does not begin until {!start}.
    Raises [Invalid_argument] on a non-positive [interval] or
    [window]. *)

val set_metrics_all : t array -> Metrics.t -> unit
(** Attach the registry the plane samples (and records its own
    counters into: [telem.ticks], [telem.rollup.bytes/msgs],
    [telem.late_drop], [telem.alert.*]). Without a registry ticks
    still run but deltas are empty. *)

val set_tracer_all : t array -> Flux_trace.Tracer.t -> unit
(** Root emits [telem.rollup] per epoch and [telem.alert] per alert. *)

val set_flight_all : t array -> Flux_trace.Flight.t -> unit
(** Attach the flight recorder alert- and mark_down-triggered dumps go
    to. *)

val start : ?until:float -> t array -> unit
(** Arm every rank's rollup timer (period [interval], first tick one
    interval from now). [?until] schedules {!stop} that many
    sim-seconds from now so a harness's engine can drain; without it
    the recurring timers keep the engine alive until {!stop} is
    called. Idempotent while running. *)

val stop : t array -> unit
(** Cancel the rollup timers. In-flight epoch reductions complete. *)

val mute : t array -> rank:int -> unit
(** Fault injection: kill one rank's telemetry agent while its broker
    stays up — the silent-rank case the detector exists for. *)

val on_alert : t array -> (Detect.alert -> unit) -> unit
(** Subscribe to the root's [telem.alert] stream. Callbacks run
    synchronously as each alert is raised (after the trace event,
    counter, and flight dump), in registration order — the hook an
    elasticity controller hangs its grow trigger on. Same-seed runs
    replay the identical callback sequence. *)

val on_rollup : t array -> (int -> unit) -> unit
(** Subscribe to epoch finalization at the root: called with the epoch
    number after its delta is folded into {!series} and its detectors
    have run. The liveness signal controllers use to tell "telemetry is
    quiet" from "telemetry is dead". *)

val series : t array -> Series.t
(** The root's per-metric time series. *)

val alerts : t array -> Detect.alert list
(** Every alert the root raised, in emission order. Same-seed runs
    produce identical sequences. *)

val epochs_completed : t array -> int
(** Rollup epochs the root finalized. *)

val rollup_bytes : t array -> int
(** Total in-band payload bytes sent up the tree (sum over edges). *)

val late_drops : t array -> int
(** Contributions that arrived after their epoch was forwarded. *)
