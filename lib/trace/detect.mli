(** Pure anomaly detectors over telemetry rollup epochs.

    Each detector is a function from data to structured alerts — no
    clocks, no hidden state — so the telemetry plane's alert stream is
    exactly as deterministic as the rollups feeding it. The three
    detectors cover the paper's center-scale monitoring concerns:
    cross-rank outliers (stragglers), queue-depth trends (the overload
    precursor an elasticity controller acts on), and ranks that went
    quiet without the failure detector noticing. *)

module Json = Flux_json.Json

type kind = Straggler | Queue_growth | Silent

type alert = {
  al_kind : kind;
  al_epoch : int;
  al_rank : int;  (** -1 for center-level alerts (queue growth) *)
  al_metric : string;
  al_value : float;  (** the offending observation *)
  al_threshold : float;  (** the bound it crossed *)
  al_detail : string;
}

val kind_to_string : kind -> string

val alert_fields : alert -> (string * Json.t) list
(** The field list a [telem.alert] trace event carries. *)

val pp_alert : Format.formatter -> alert -> unit

val stragglers : k:float -> epoch:int -> metric:string -> (int * float) list -> alert list
(** [stragglers ~k ~epoch ~metric per_rank] flags every rank whose
    value exceeds [median + k * MAD] of the cross-rank distribution
    (one-sided — fast ranks are not anomalies). MAD is floored at 1% of
    |median|, at least 1 ns, so degenerate all-equal epochs never flag
    noise. Fewer than 3 ranks yields no
    alerts (no meaningful distribution). Output is rank-ascending. *)

val queue_growth :
  slope_threshold:float -> epoch:int -> metric:string -> (int * float) list -> alert list
(** One alert when the least-squares slope of the points (value per
    epoch) exceeds [slope_threshold] and at least 3 epochs were observed. *)

val silent_ranks :
  epoch:int -> expected:int list -> heard:int list -> down:int list -> alert list
(** One alert per expected rank that neither contributed to the epoch
    nor is known-down — the "expected sample missing without a
    mark_down" case. Output is rank-ascending. *)
