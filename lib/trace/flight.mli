(** Crash flight recorder: per-rank rings of recent trace events.

    The tracer's global buffer on a long run is dominated by
    healthy-rank chatter and may have rotated a victim's history out
    long before anyone asks what it was doing. The flight recorder
    subscribes to the tracer and keeps an independent fixed-capacity
    ring per rank, so the last [capacity] events of {e every} rank are
    dumpable at the moment it dies, an alert fires on it, or a harness
    guarantee trips — every chaos/soak failure then comes with the last
    events on the ranks involved. *)

module Json = Flux_json.Json

type dump = {
  d_ts : float;  (** virtual time of the dump *)
  d_rank : int;
  d_reason : string;
  d_events : Tracer.event list;  (** oldest first *)
}

type t

val create : ?capacity:int -> Tracer.t -> t
(** Subscribe to the tracer. [capacity] (default 256) bounds each
    rank's ring; at most 64 dumps are retained. The recorder sees every
    event the tracer records. Raises [Invalid_argument] when
    [capacity <= 0]. *)

val recent : t -> rank:int -> Tracer.event list
(** The rank's ring contents right now, oldest first (no dump taken). *)

val dump : t -> rank:int -> reason:string -> dump
(** Snapshot the rank's ring, record the dump (up to 64), and
    tag a [flight.dump] instant into the tracer carrying the reason. *)

val dump_once : t -> rank:int -> tag:string -> reason:string -> dump option
(** Like {!dump} but at most once per (rank, [tag]) — alert-triggered
    dumps fire every epoch for a persistent straggler; only the first
    is kept. *)

val dumps : t -> dump list
(** Recorded dumps, oldest first. *)

val dump_to_perfetto : dump -> string
(** The dump as Chrome/Perfetto trace-event JSON. *)
