(** Structured run-time tracing.

    The paper's Challenge 1 calls for "managing a drastically increased
    amount of run-time information that must be monitored, traced, and
    stored". This tracer is the common sink: subsystems emit typed
    events (category + name + rank + fields), the tracer counts them,
    bounds memory, and can notify subscribers; {!Export} renders the
    stream for humans or machines.

    One tracer serves one simulation; it is driven by the virtual clock
    supplied at creation, so traces are as deterministic as the runs
    that produce them. *)

module Json = Flux_json.Json

type event = {
  ev_ts : float;  (** virtual time *)
  ev_cat : string;  (** subsystem: "cmb", "kvs", "sched", ... *)
  ev_name : string;  (** e.g. "send", "commit", "job.start" *)
  ev_rank : int;  (** originating rank, -1 when not rank-bound *)
  ev_fields : (string * Json.t) list;
}

type ctx = { tc_trace : int; tc_span : int; tc_parent : int }
(** Dapper-style causal context carried in message envelopes: every
    span belongs to a trace ([tc_trace], the root span's id), has its
    own id ([tc_span]) and points at the span that caused it
    ([tc_parent], 0 for roots). Ids come from a per-tracer monotonic
    counter, so traced runs stay deterministic. *)

type t

val create : ?capacity:int -> now:(unit -> float) -> unit -> t
(** [capacity] bounds retained events (default 100_000, oldest dropped);
    counters are never dropped. *)

val now : t -> float
(** The tracer's clock (virtual time in a simulation). *)

val root_ctx : t -> ctx
(** Start a new trace: a fresh root span whose id doubles as the
    trace id. *)

val child_ctx : t -> ctx -> ctx
(** A fresh span caused by [parent], in the same trace. *)

val emit :
  t ->
  cat:string ->
  name:string ->
  ?rank:int ->
  ?ctx:ctx ->
  ?fields:(string * Json.t) list ->
  unit ->
  unit
(** Record one event and bump the [cat.name] counter. [?ctx] prepends
    the causal trace/span/parent fields. *)

val add_count : t -> cat:string -> name:string -> int -> unit
(** Bump the [cat.name] counter by [n] without recording an event.
    Lets subsystems fold pre-existing integer counters (fault counts,
    byte totals) into the one counter namespace. *)

val subscribe : t -> (event -> unit) -> unit
(** Called for every event. *)

val events : t -> event list
(** Retained events, oldest first. *)

val dropped : t -> int
(** Events discarded by the capacity bound. Each drop also bumps the
    [trace.dropped] counter, so truncation shows up in
    {!Export.counters_csv} and {!Export.summary} alongside every other
    signal. *)

val capacity : t -> int
(** The retained-event bound this tracer was created with. *)

val count : t -> cat:string -> name:string -> int
(** Occurrences of [cat.name] since creation, including events the
    capacity bound has dropped. *)

val counters : t -> ((string * string) * int) list
(** All counters, sorted by key. *)
