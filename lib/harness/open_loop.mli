(** Open-loop write load, shared by the overload soak ({!Overload}) and
    the sharded soak ({!Shard.soak}).

    A producer offers one-binding idempotent [mput]s at drawn
    exponential interarrival times until the injection window closes,
    however many are still in flight: offered load does not slacken as
    queues fill, the regime closed-loop clients never reach. Each op is
    sent with up to 6 transmissions and a 1 s deadline per attempt, and
    resolves into exactly one of acked, shed (busy after its retries)
    or failed. Every ack is recorded in the run's {!History}. *)

type t

val create : Flux_cmb.Session.t -> History.t -> duration:float -> t
(** The accounting of one run whose producers inject until virtual time
    [duration]. *)

val producer :
  t ->
  rank:int ->
  seed:int ->
  rate:(float -> float) ->
  (int -> string * string * Flux_json.Json.t) ->
  unit
(** [producer t ~rank ~seed ~rate op] arms a stream at [rank]. Its gaps
    are exponential at [rate now] ops/s, drawn from the stream's own
    generator, seeded [seed lxor (rank * 0x9e3779b1)]. Its [n]th op
    (from 1) writes [value] under [key] to [topic], where
    [op n = (topic, key, value)]. *)

type summary = {
  offered : int;  (** ops injected *)
  acked : int;  (** ops acknowledged Ok *)
  shed : int;  (** ops rejected busy after retries *)
  failed : int;  (** other failures (timeouts) *)
  goodput : float;  (** acked ops / (injection + drain) window, ops/second *)
  ack_p50 : float;  (** median ack latency, seconds *)
  ack_p99 : float;
  lost_acks : int;  (** acked writes that failed read-back — must be 0 *)
}

val drain :
  t -> rank:int -> (string -> (Flux_json.Json.t, string) result) -> summary
(** [drain t ~rank read] runs the engine until arrivals stop and every
    in-flight op resolves, then reads each acked write back through
    [read], a reader at [rank], inside a process. The history records a
    [verify@rank] violation for each write that does not read back, and
    one for the offered ops that never resolved. Goodput counts the
    window up to the later of [duration] and the last ack, so work
    absorbed into queues and finished late is not counted as
    above-capacity throughput. *)
