(** Center-level telemetry time series.

    The root of the telemetry plane folds each completed rollup epoch —
    a cross-rank merged {!Metrics.snap} delta — into one bounded ring
    per metric name: counters keep the per-epoch delta summed across
    ranks, gauges a min/max/sum rollup of per-rank last-values,
    histograms the bucket-merged percentile summary. Memory is bounded
    by [window] points per name regardless of run length. *)

type gauge_point = { gp_min : float; gp_max : float; gp_sum : float; gp_n : int }

type point =
  | P_counter of int  (** per-epoch delta, summed across ranks *)
  | P_gauge of gauge_point  (** rollup of per-rank last-values *)
  | P_hist of Metrics.summary  (** bucket-merged across ranks *)

type t

val create : ?window:int -> unit -> t
(** [window] (default 256) bounds retained points per metric; raises
    [Invalid_argument] when non-positive. *)

val record : t -> epoch:int -> Metrics.snap -> unit
(** Fold one epoch's merged delta into the store. *)

val latest : t -> name:string -> (int * point) option

val latest_scalar : t -> name:string -> (int * float) option
(** Newest point reduced to its trend scalar (counter delta, gauge max,
    histogram p95) — the instantaneous pressure reading an elasticity
    controller polls between trend alerts. *)

val tail_scalars : t -> name:string -> n:int -> (int * float) list
(** The last [n] points reduced to the trend scalar (counter delta,
    gauge max, histogram p95) — the queue-growth detector's input. *)

val to_csv : t -> string
(** [metric,epoch,kind,count,sum,min,max,p50,p95,p99] rows, sorted by
    metric then epoch. *)

val render_top : t -> string
(** A [flux top]-style fixed-width table of every metric at its latest
    epoch. *)
