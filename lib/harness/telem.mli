(** Telemetry-plane harness: a seeded synthetic workload with an
    injectable fault, run under the live telemetry plane
    ({!Flux_modules.Telem}), checking that the plane sees the fault.

    Every rank runs a timed-work loop feeding the [telem.work]
    histogram. The faults are a straggler (one rank's work slows down by
    a factor), a kill (mark_down, which must produce a flight dump of
    the victim's last events), a mute (one rank's telemetry agent dies
    while the rank stays up) and a queue ramp (a gauge growing
    linearly). Tripped guarantees land in [t_violations] and take a
    flight dump of their own. Deterministic for a given config. *)

type config = {
  seed : int;
  size : int;
  fanout : int;
  interval : float;  (** rollup epoch length *)
  epochs : int;  (** run duration = epochs * interval *)
  window : int;  (** series ring capacity and trend-detector window *)
  work_per_epoch : int;  (** work items per rank per epoch *)
  straggler : (int * float) option;  (** rank, slowdown factor *)
  onset_frac : float;  (** fault onset as a fraction of the run *)
  kill : int option;  (** rank marked down at onset *)
  mute : int option;  (** rank whose telemetry agent dies at onset *)
  ramp : float option;  (** telem.qdepth gauge growth, units/epoch *)
}

val default : config
(** 16 ranks, 12 epochs of 0.05 s, rank 11 straggling 10x from 30% of
    the run. Work items average 2 ms; the plane runs the module's
    detectors at their defaults (median + 4 * MAD, slope 1/epoch). *)

val straggler_case : config
val kill_case : config
val silent_case : config
val growth_case : config

type report = {
  t_epochs : int;  (** rollup epochs the root finalized *)
  t_alerts : Flux_trace.Detect.alert list;
  t_stragglers : int;
  t_growth : int;
  t_silent : int;
  t_first_straggler_epoch : int;  (** -1 when none fired *)
  t_onset_epoch : int;  (** rollup epoch containing the fault onset *)
  t_dumps : int;
  t_victim_dump_events : int;  (** events in the killed rank's dump; -1 without a kill *)
  t_rollup_bytes : int;
  t_late_drops : int;
  t_alert_fingerprint : string;  (** kind:epoch:rank:metric;... *)
  t_violations : string list;
  t_clock : float;
  t_events : int;  (** engine fingerprint *)
  t_series : Flux_trace.Series.t;
  t_flight : Flux_trace.Flight.t;
}

val run : config -> report
(** Raises [Invalid_argument] unless there are at least 4 ranks and
    epochs, the interval and counts are positive, the onset is inside
    the run, the fault ranks are in 1..size-1 and the straggler factor
    is above 1. *)

val harness : Harness.t
(** The bench sweep: telemetry-on vs -off wall cost on an {!Overload}
    soak (telem-off runs must keep identical fingerprints), and rollup
    bytes per epoch vs interval. *)
