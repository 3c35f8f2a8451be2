(** Point-to-point network model.

    Stands in for the paper's QDR InfiniBand fabric. Each directed link
    is a FIFO pipe charging [latency + bytes/bandwidth]; each receiving
    host charges per-message and per-byte CPU time on a serial core, so
    a node that must ingest the concatenation of a whole subtree's data
    (the KVS master during a fence) becomes the bottleneck exactly as in
    the paper's measurements.

    The fabric can also inject faults — probabilistic message loss,
    directed link cuts and timed blackouts — so the
    layers above (CMB RPC timeouts/retries, KVS failover) can be
    exercised under realistic failure semantics.

    ['msg] is the payload type carried; the model only inspects the
    declared [size]. *)

type config = {
  link_latency : float;  (** per-hop propagation + stack traversal, seconds *)
  bandwidth : float;  (** link bandwidth, bytes/second *)
  per_msg_overhead : int;  (** framing bytes added to every message *)
  host_cpu_per_msg : float;  (** receiver CPU seconds per message *)
  host_cpu_per_byte : float;  (** receiver CPU seconds per payload byte *)
  local_delivery : float;  (** cost of a loop-back (same-node) delivery *)
}

val default_config : config
(** Calibrated to a commodity Linux/IB cluster running a TCP overlay:
    20 us per hop, 3.2 GB/s links, 2 us + 0.35 ns/B of receive CPU. *)

type 'msg t

val create : Engine.t -> ?config:config -> nodes:int -> unit -> 'msg t
(** [create eng ~nodes ()] builds a fabric connecting ranks
    [0 .. nodes-1]. The generator behind {!set_loss} has the fixed seed
    [0x464c5558]; with loss disabled (the default) no random draws
    occur and runs are bit-for-bit deterministic. Raises
    [Invalid_argument] if [nodes <= 0]. *)

val config : 'msg t -> config

(** {1 Bounded links}

    By default every directed link is an unbounded FIFO pipe. Setting
    limits caps the number of in-flight messages and wire bytes per
    link; the policy decides what happens to a send that would exceed a
    cap. Opt-in: with limits unset the delivery schedule is bit-for-bit
    identical to the historical model. *)

type overflow = Mailbox.overflow =
  | Block
      (** Defer transmission until enough in-flight messages drain
          (sender-side backpressure: the message waits at the sender
          instead of on the wire). *)
  | Drop_newest  (** Shed the incoming message. *)
  | Drop_oldest
      (** Evict the oldest in-flight message (its pipe time is not
          reclaimed — the bytes were already transmitted). *)

type queue_limits = { max_msgs : int; max_bytes : int; policy : overflow }

val set_link_limits : 'msg t -> queue_limits option -> unit
(** Install (or clear) per-link occupancy caps. Applies to every
    non-loopback link of this fabric; loop-back delivery is host-local
    IPC and is never capped. Raises [Invalid_argument] when a bound
    is < 1. *)

val set_handler : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
(** [set_handler t rank f] installs the delivery callback for [rank],
    replacing any previous one. *)

(** {1 Observability}

    Both hooks default to [None]: unobserved fabrics pay one branch per
    send/drop and allocate nothing (pay-for-what-you-use). Neither hook
    affects delivery times — instrumentation must never perturb the
    simulation. *)

val set_tracer : 'msg t -> Flux_trace.Tracer.t option -> unit
(** Fold drops into the tracer's counter table: every drop bumps
    [net.drop]; fault-induced ones (loss, cuts, blackouts) also bump
    [net.dead_letter]. Counter-only — no events, so high drop rates
    cannot evict retained events. *)

val set_metrics : 'msg t -> ?label:string -> Flux_trace.Metrics.t option -> unit
(** Per-hop numeric aggregation, recorded at send time under the
    sending rank: [<label>.queue_wait] and [<label>.transit] histograms
    (seconds), a [<label>.link_bytes] counter (wire bytes), a
    [<label>.link_backlog] gauge (seconds of queued transmission), and
    queue-occupancy gauges [<label>.link_depth] (in-flight messages on
    the last-used link) / [<label>.link_depth_hwm] (high-water mark
    across the rank's links). Policy sheds bump a
    [<label>.overload_drop] counter and [Block] deferrals a
    [<label>.link_defer] counter. [label] defaults to ["net"]; sessions
    label their three planes ["net.rpc"] / ["net.event"] /
    ["net.ring"]. *)

val send : 'msg t -> src:int -> dst:int -> size:int -> 'msg -> unit
(** [send t ~src ~dst ~size m] queues [m] for delivery. Sends from a
    dead node, over a cut link, or to a node dead at arrival time are
    silently dropped (the transport reports nothing, as with a crashed
    peer). [size] is the payload size in bytes. *)

(** {1 Failure injection} *)

val fail_node : 'msg t -> int -> unit
(** [fail_node t r] kills rank [r]: all traffic from/to it is dropped
    until {!revive_node}. In-flight messages to [r] are lost. *)

val revive_node : 'msg t -> int -> unit

val set_loss : 'msg t -> float -> unit
(** [set_loss t p] drops each subsequent non-loopback message with
    probability [p]. Lost messages still occupy link bandwidth (they
    were transmitted; the fault eats them en route) and are counted as
    dead letters at their would-be arrival time. Raises
    [Invalid_argument] unless [0 <= p <= 1]. *)

val cut_link : 'msg t -> src:int -> dst:int -> unit
(** [cut_link t ~src ~dst] severs the directed link for good:
    subsequent sends over it become dead letters. *)

val blackout : 'msg t -> src:int -> dst:int -> duration:float -> unit
(** [blackout t ~src ~dst ~duration] cuts the directed link for
    [duration] seconds of virtual time, then it heals by itself. *)

(** {1 Accounting} *)

type stats = {
  messages : int;  (** total messages delivered *)
  bytes : int;  (** wire bytes (payload + framing) delivered *)
  dropped : int;  (** messages lost for any reason *)
  dropped_bytes : int;  (** wire bytes of dropped messages *)
  dead_letters : int;  (** subset of [dropped] due to injected faults
                           (loss, cut links, blackouts) rather than dead
                           hosts *)
  overload_drops : int;  (** subset of [dropped] shed by queue-limit
                             policy (full link under [Drop_newest] /
                             [Drop_oldest]) *)
  overload_defers : int;  (** sends postponed by the [Block] policy *)
}

val stats : 'msg t -> stats

val link_bytes : 'msg t -> src:int -> dst:int -> int
(** Wire bytes delivered so far over one directed link. *)

val max_link_depth_hwm : 'msg t -> int
(** Highest number of messages ever in flight at once on one link of
    the fabric — the bound the overload harness asserts against
    configured caps. *)
