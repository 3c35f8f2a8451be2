(** Always-on numeric aggregation (LDMS-style), complementing the
    event-oriented {!Tracer}.

    A registry holds per-(metric, rank) counters, gauges, and
    log-bucketed latency histograms. Subsystems guard every update with
    a [match metrics with None -> ...] so an unattached registry costs
    nothing on hot paths; when attached, each update is one hashtable
    operation and no allocation beyond first touch of a key.

    Histograms bucket geometrically (ratio [growth] = 2^(1/4), lowest
    boundary 1 ns), so p50/p95/p99 are reported to within ~one bucket
    ratio of the exact sample quantile while storing only 256 ints. *)

module Json = Flux_json.Json

type t

type summary = {
  n : int;
  sum : float;
  mn : float;
  mx : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val growth : float
(** Histogram bucket ratio: reported quantiles are within a factor
    [growth] of the true sample quantile (modulo range clamping). *)

val create : unit -> t

(** {1 Counters} *)

val incr : t -> name:string -> rank:int -> unit
val add : t -> name:string -> rank:int -> int -> unit
val counter : t -> name:string -> rank:int -> int
val counter_total : t -> name:string -> int
(** Sum of the named counter across all ranks. *)

(** {1 Gauges} *)

val set_gauge : t -> name:string -> rank:int -> float -> unit
val gauge : t -> name:string -> rank:int -> float option

(** {1 Histograms} *)

val observe : t -> name:string -> rank:int -> float -> unit
(** Record one observation (typically a latency in seconds; any
    non-negative magnitude works). *)

(** {1 Family handles — amortizing the name lookup}

    The registry is stored name-major: each metric name owns a rank
    table. A family handle is that inner table, resolved once; updates
    through it skip hashing the name string entirely. Subsystems that
    fire several updates per message (the RPC net, the broker's latency
    instrumentation) resolve their families when a registry is attached
    and pay one int-keyed lookup per update thereafter. Handles stay
    valid for the registry's lifetime. *)

type counter_family
type gauge_family
type hist_family

val counter_family : t -> name:string -> counter_family
val gauge_family : t -> name:string -> gauge_family
val hist_family : t -> name:string -> hist_family

val family_add : counter_family -> rank:int -> int -> unit
val family_incr : counter_family -> rank:int -> unit
val family_set_gauge : gauge_family -> rank:int -> float -> unit
val family_gauge : gauge_family -> rank:int -> float option
val family_observe : hist_family -> rank:int -> float -> unit

val summary : t -> name:string -> rank:int -> summary option
(** [None] when the histogram has no observations. *)

val summary_merged : t -> name:string -> summary option
(** Bucket-wise merge of the named histogram across all ranks. *)

(** {1 Export} *)

val to_csv : t -> string
(** [metric,rank,value] rows, sorted by (metric, rank). Histograms
    expand to [name.count/.sum/.min/.max/.p50/.p95/.p99] rows. *)

(** {1 Snapshots — the unit of in-band telemetry}

    A snapshot is an immutable, key-sorted view of (a rank slice of) a
    registry. The telemetry plane samples one per rollup epoch, ships
    the {!diff} against the previous epoch up the TBON, and {!merge}s
    sibling deltas at every level — counters sum, gauges carry the
    freshest per-rank last-value, histograms merge bucket-wise — so the
    root reassembles an exact center-wide delta for the epoch. *)

type hist_snap = {
  hs_buckets : (int * int) list;
      (** (bucket index, count) for non-empty buckets, ascending *)
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
}

type snap = {
  sn_counters : ((string * int) * int) list;
  sn_gauges : ((string * int) * float) list;
  sn_hists : ((string * int) * hist_snap) list;
}
(** All three binding lists are sorted by (name, rank) key. *)

val snap_empty : snap

val snapshot : ?rank:int -> t -> snap
(** Capture the registry (or just one rank's slice — what a broker's
    telemetry module contributes). *)

val diff : base:snap -> snap -> snap
(** [diff ~base next] is the per-key delta: counters and histogram
    buckets subtract (zero entries dropped), gauges keep [next]'s value
    but omit keys unchanged since [base]. [merge base (diff ~base next)]
    reconstructs [next] exactly for counters and histogram contents
    (histogram min/max are over-approximated by [next]'s range — they
    are not invertible). *)

val merge : snap -> snap -> snap
(** Keyed union: counters sum, gauges right-biased (the second operand
    is the fresher contribution), histograms add bucket-wise. *)

(** {2 Snapshot accessors} *)

val snap_counter_names : snap -> string list
val snap_gauge_names : snap -> string list
val snap_hist_names : snap -> string list
val snap_gauges_of : snap -> name:string -> (int * float) list
val snap_hists_of : snap -> name:string -> (int * hist_snap) list
val snap_counter_total : snap -> name:string -> int
val snap_hist_merged : snap -> name:string -> summary option

(** {2 Wire codec} *)

val snap_to_json : snap -> Json.t
(** Deterministic (key-sorted) compact encoding; the payload the
    telemetry module ships up the tree. *)

val snap_of_json : Json.t -> snap
(** Raises [Json.Type_error] on malformed input. *)
