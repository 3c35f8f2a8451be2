(** A comms session: one CMB broker per node, interconnected by three
    persistent overlay planes.

    Mirrors the paper's Figure 1 wire-up:
    - an event plane (modeled PGM bus) carrying publish-subscribe events
      with guaranteed, in-order delivery;
    - a request-response tree (configurable fan-out) for scalable RPCs,
      barriers and reductions — requests travel upstream to the first
      comms module that matches their topic, responses retrace the hops;
    - a ring overlay for rank-addressed RPCs reaching any rank without
      routing tables.

    Comms modules are plugins loaded into a broker; they receive the
    requests that arrive at their broker and the events they {!subscribe}
    to, and may respond, aggregate-and-forward (reductions), or publish. *)

type t
(** A comms session over ranks [0 .. size-1]. *)

type broker
(** Per-rank broker state. *)

type reply = (Flux_json.Json.t, string) result
(** RPC outcome: payload of the response, or the error string. *)

type handled = Consumed | Pass
(** A module's verdict on a request: [Consumed] stops routing (the
    module owns the eventual response); [Pass] lets the request continue
    upstream. *)

type module_instance = {
  mod_name : string;  (** must equal the topic service component it serves *)
  on_request : Message.t -> handled;
}

type module_factory = broker -> module_instance

(** {1 RPC retry policy}

    Every RPC registered in a broker's pending table carries a deadline
    scheduled on the engine: if no response arrives in time the
    continuation fires with [Error "timeout"] and the table entry is
    removed, so requests addressed to a rank that dies in flight never
    dangle. Idempotent requests are additionally retransmitted (same
    nonce, so duplicate responses are ignored) with exponential backoff,
    re-routed through whatever topology is in effect at retransmit time
    — a slave whose parent died retries through its new parent once the
    overlay heals.

    The policy is fixed: a 2 s deadline per attempt, 4 transmissions
    for idempotent requests (1 otherwise), and a 50 ms backoff that
    doubles up to a 1 s cap, less up to 10% jitter. The jitter is drawn
    from a deterministic hash of (rank, nonce, attempt), so it
    desynchronizes retransmit stampedes without making runs
    irreproducible. Callers override the deadline and attempt count per
    request ([?timeout], [?attempts]); [infinity] disables the timer for
    RPCs that block by design, e.g. a fence. *)

(** {1 Overload protection}

    Servers under admission control shed requests with the structured
    error [busy retry_after=<seconds>] instead of queueing without
    bound; the retry machinery recognizes it and reschedules the
    retransmit (hint floored into the backoff schedule, capped and
    jittered) rather than surfacing the failure, so clients degrade to
    higher latency, not errors. Only requests with retransmit budget
    left (idempotent, attempts remaining) are retried — others see the
    busy error directly.

    Independently, a session can run credit-based flow control on the
    request tree: each broker spends one credit per in-flight upstream
    request and wins it back when the response passes down through it.
    An exhausted window defers sends into a bounded per-broker stash;
    a full stash sheds with the busy error above — so fan-in pressure
    propagates down the TBON hop by hop instead of accumulating at the
    root, bounding memory at every level while preserving the paper's
    commit-aggregation semantics. *)

type flow_config = {
  flow_credits : int;  (** in-flight upstream requests allowed per broker *)
  flow_stash : int;  (** deferred sends held per broker before shedding *)
}
(** A credit unanswered for 4 s is considered leaked (its response was
    lost to drops or a dead parent) and reclaimed; a shed carries the
    same 4 s as its [retry_after] hint. *)

val busy_error : retry_after:float -> string
(** The structured shed error: [busy retry_after=<seconds>]. *)

val busy_retry_after : string -> float option
(** Parse the hint back out of an error string; [None] when the error
    is not a busy rejection. *)

(** {1 Session lifecycle} *)

type rank_topology =
  | Ring  (** store-and-forward around a ring: trivial routing, O(n) hops
              (the prototype's choice, fine for debugging tools) *)
  | Direct  (** a full point-to-point overlay: one hop to any rank (the
                "configurable topology" knob of the secondary overlay) *)

val create :
  Flux_sim.Engine.t ->
  ?fanout:int ->
  ?rank_topology:rank_topology ->
  ?flow:flow_config ->
  size:int ->
  unit ->
  t
(** [create eng ~size ()] wires up a session of [size] brokers with the
    given RPC-tree fan-out (default 2, the paper's binary tree) and
    rank-addressed overlay topology (default {!Ring}); its three planes
    use {!Flux_sim.Net.default_config}. [flow] (default off) turns
    on credit-based flow control on the request tree; children created
    with {!create_child} inherit it. Raises [Invalid_argument] on
    non-positive flow bounds. *)

val engine : t -> Flux_sim.Engine.t
val size : t -> int
val fanout : t -> int
val broker : t -> int -> broker

val load_module : t -> ?ranks:int list -> module_factory -> unit
(** [load_module t f] instantiates the module on every rank (or on
    [ranks] only, to load at a configurable tree depth). *)

(** {1 Broker context — used by modules and the client API} *)

val rank : broker -> int
val session_of : broker -> t
val b_engine : broker -> Flux_sim.Engine.t
val b_size : broker -> int

val tree_parent : broker -> int option
(** Effective parent after healing; [None] at the root. *)

val tree_children : broker -> int list
(** Effective children after healing. *)

val respond : broker -> Message.t -> Flux_json.Json.t -> unit
(** [respond b req payload] sends the response back along [req]'s
    recorded route. *)

val respond_error : broker -> Message.t -> string -> unit

val request_up :
  broker ->
  ?timeout:float ->
  ?attempts:int ->
  ?idempotent:bool ->
  ?trace_ctx:Flux_trace.Tracer.ctx ->
  topic:string ->
  Flux_json.Json.t ->
  reply:(reply -> unit) ->
  unit
(** Inject a request at this broker destined upstream: local modules are
    consulted first, then it ascends hop by hop. [reply] always fires
    exactly once: with the response, or with [Error "timeout"] after the
    deadline (and any retransmits) are exhausted. [timeout] and [attempts]
    override the retry policy above; [idempotent] (default [false]) opts
    into retransmission with its attempt budget. With a tracer attached
    the RPC becomes a span: a fresh root context unless [trace_ctx]
    supplies the causal parent (a module forwarding work it received); the
    context rides the message through every hop, retransmit and the
    response. *)

val request_from_module :
  broker ->
  ?timeout:float ->
  ?attempts:int ->
  ?idempotent:bool ->
  ?trace_ctx:Flux_trace.Tracer.ctx ->
  topic:string ->
  Flux_json.Json.t ->
  reply:(reply -> unit) ->
  unit
(** Like {!request_up} but skips this broker's own modules — used by a
    module instance forwarding aggregated work toward its upstream peer. *)

val rpc_rank :
  broker ->
  ?timeout:float ->
  ?idempotent:bool ->
  ?trace_ctx:Flux_trace.Tracer.ctx ->
  ?route:(unit -> int) ->
  dst:int ->
  topic:string ->
  Flux_json.Json.t ->
  reply:(reply -> unit) ->
  unit
(** Rank-addressed RPC over the ring plane. Deadline semantics as in
    {!request_up}, with the policy's attempt budget. When [route] is
    given, every (re)transmission calls it to resolve the destination, so
    idempotent retries follow the current topology (a healed volume tree,
    a newly elected master) instead of retransmitting to the rank first
    addressed; [dst] is then only the first attempt's target. *)

val publish : broker -> ?trace_ctx:Flux_trace.Tracer.ctx -> topic:string -> Flux_json.Json.t -> unit
(** Publish an event: it ascends to the session root, receives a session
    sequence number, and is multicast down the event plane to every
    live broker. Delivery at each broker is in sequence order.
    [trace_ctx] links the event into a causal trace (e.g. the KVS
    commit that caused a setroot). *)

val subscribe : broker -> prefix:string -> (Message.t -> unit) -> unit
(** Run the callback on every event delivered here whose topic has
    [prefix] as a component-wise prefix. Modules subscribe in their load,
    after {!load_module}; clients through {!Api}. One list per broker
    holds both and the {!subscribe_once} waits: handlers run in
    subscription order, one added during a dispatch sees only later
    events, and a one-shot wait fires at most once, then leaves. *)

val subscribe_once : broker -> topic:string -> (Message.t -> unit) -> unit
(** Wait for one event with exactly this topic. The callback runs in
    subscription order with the {!subscribe} handlers, only for events
    dispatched after this call, and at most once, even under a
    re-entrant publish; the wait then leaves the broker's list. *)

(** {1 Session hierarchy}

    New comms sessions are created, destroyed and monitored by existing
    ones in a parent-child relationship: a child session covers a
    subset of the parent's nodes (the parent's session assists its
    bootstrap, which is why nested-instance creation is charged only a
    small cost), and destroying a parent tears down its descendants. *)

val create_child : t -> nodes:int list -> unit -> t
(** [create_child parent ~nodes ()] builds a session over the given
    parent ranks (child rank [i] runs on parent rank [List.nth nodes i]),
    with a binary RPC tree and a {!Ring} rank overlay.
    Raises [Invalid_argument] on an empty list, duplicate ranks, ranks
    out of range, or dead parent ranks. *)

val child_sessions : t -> t list
(** Live children, in creation order. *)

val destroy : t -> unit
(** Tear a session down: every broker stops (all traffic dropped), its
    descendants are destroyed recursively, and it is unlinked from its
    parent. Idempotent. *)

val is_destroyed : t -> bool

(** {1 Failure injection and healing} *)

val crash : t -> int -> unit
(** [crash t r] makes rank [r] drop all traffic (the node has died) but
    does {e not} rewire: detection is the live module's job. *)

val mark_down : t -> int -> unit
(** [mark_down t r] records [r] as dead and rewires the overlays: orphan
    subtrees reattach to their nearest live ancestor (or, when the whole
    ancestor chain is dead, directly to the overlay root). The overlay
    root stays where it is while it lives; when it dies it moves to the
    lowest live rank. Brokers whose parent changed resynchronize their
    event streams. Registered liveness watchers fire after the heal.
    Idempotent. *)

val mark_up : t -> int -> unit
(** [mark_up t r] reverses {!mark_down}: the rank's network endpoints
    are revived on all three planes, the overlay re-heals (every static
    parent is restored once every rank is back, except that the overlay
    root keeps the root: a revived static root rejoins as its child), the
    revived broker pulls the event backlog it missed (the overlay root
    pulls from a live child over the rank plane), and liveness watchers
    fire with [is_up = true]. While rank 0 lives under another overlay
    root, a request that reaches that root unconsumed goes on to rank 0,
    where the wexec, resvc, log, mon and telem masters stay. Idempotent;
    a no-op on destroyed sessions. *)

val is_down : t -> int -> bool

val add_liveness_watch : t -> (int -> bool -> unit) -> unit
(** [add_liveness_watch t f] registers [f rank is_up] to run after every
    {!mark_down} ([is_up = false]) and {!mark_up} ([is_up = true]), once
    the topology has healed. Watchers run in registration order and are
    how services (kvs election, live, group) react to membership
    changes. *)

(** {1 Observability} *)

val set_tracer : t -> Flux_trace.Tracer.t option -> unit
(** Attach a tracer: the session emits category ["cmb"] events —
    [rpc.send]/[rpc.done] (with [topic], [dur] and the span context) for
    every client RPC, [rpc.retry]/[rpc.timeout] on the deadline path,
    [hop.up]/[hop.down]/[hop.ring] per forwarding hop, [event.publish]
    and [event.deliver] on the event plane, and [mark_down]/[mark_up] on
    topology changes. Also attached to the three Net planes, which fold
    their drop accounting into the same counter table. *)

val set_metrics : t -> Flux_trace.Metrics.t option -> unit
(** Attach a metrics registry: client RPC latencies feed
    [cmb.rpc.latency] (plus a [.depth<d>] histogram keyed by the
    origin's RPC-tree depth), and the three Net planes record per-hop
    queue/transit histograms under labels [net.rpc]/[net.event]/
    [net.ring]. *)

(** {1 Accounting} *)

val rpc_timeouts : t -> int
(** RPCs that completed with [Error "timeout"] across all brokers. *)

val rpc_retries : t -> int
(** Retransmissions performed across all brokers. *)

val rpc_busy_retries : t -> int
(** Retries rescheduled because a server shed with
    [busy retry_after=...] (a subset of {!rpc_retries} outcomes). *)

val pending_rpc_count : t -> int -> int
(** In-flight RPCs registered at one rank's broker (dangling entries
    would show up here). *)

val flow_stash_hwm : t -> int
(** Highest stash occupancy any broker reached — the bound the overload
    harness asserts against [flow_stash]. *)

val flow_stash_depth : t -> int -> int
(** Requests currently stashed at one rank's broker. *)

val rpc_net : t -> Message.t Flux_sim.Net.t
(** The RPC-tree fabric — exposed so tests and benchmarks can inject
    faults ({!Flux_sim.Net.set_loss}, {!Flux_sim.Net.cut_link}, ...). *)

val ring_net : t -> Message.t Flux_sim.Net.t

val rpc_net_stats : t -> Flux_sim.Net.stats
val event_net_stats : t -> Flux_sim.Net.stats
val ring_net_stats : t -> Flux_sim.Net.stats

val root_rpc_ingress_bytes : t -> int
(** Payload bytes that crossed the links into rank 0 on the RPC plane —
    the fence bottleneck the paper analyzes. *)
