(** The [kvs] comms module: a distributed key-value store with a single
    master (the session root) and caching slaves, as in the paper.

    Slaves cache content-addressed objects in write-back mode: a put is
    purely local (hash + cache + dirty tuple); a commit flushes the
    dirty set to the master through the tree of slave caches; a fence is
    the collective variant, aggregating contributions hop by hop up the
    tree — identical value objects are deduplicated at each hop while
    the [(key, sha)] tuples are concatenated, which is what produces the
    paper's Figure 3 behaviour. The fence is a {!Flux_cmb.Collective}:
    each forward carries the leaves (the contributions one broker first
    aggregated) it covers, the master counts each leaf once and applies
    each distinct [(key, sha)] tuple once (its last copy, so the later
    tuple for a key still wins), so a retransmit re-routed through
    another hop adds nothing, and a late contribution to a completed
    fence gets that fence's reply. A broker whose route to the master
    changes re-sends its open batches at once. A commit or mput gets one
    identity at its first hop (the Volumes client's origin and stamped
    fid, or the first hop's rank and a fresh fid) and keeps it to the
    master, which alone applies each identity once: a retransmit
    re-routed around a dead relay is answered, not applied again. A
    write re-applied after the master itself fails over is out of
    scope, as for the fence. Gets walk the hash tree
    from the current root, faulting missing objects in from the CMB-tree parent
    (concurrent misses for one object coalesce into one upstream load),
    which yields the [log2(C) * T(G)] consumer latency of Figure 4.

    Consistency (Vogels' taxonomy, as in the paper): commit and fence
    replies carry the new root so writers read their writes; root
    references are versioned and never applied out of order (monotonic
    reads); [get_version]/[wait_version] give causal consistency across
    processes. *)

module Json = Flux_json.Json
module Sha1 = Flux_sha1.Sha1
module Session = Flux_cmb.Session

type config = {
  cache_capacity : int;  (** slave LRU capacity, in objects *)
  apply_cpu_per_tuple : float;  (** master cost to apply one tuple *)
  setroot_interiors : bool;
      (** whether a commit's [setroot] event carries every interior tree
          object the commit created: with the interiors mirrored into
          slave caches, a takeover after a master loss can rebuild the
          full store from survivors. The default [false] keeps the
          paper's fault-in phenomenology (slaves hold only what they
          pulled or wrote); {!replicated_config} turns it on. *)
  admission_max_intake : int;
      (** master admission control: shed write-side requests
          (commit/fence/mput/flush) once the intake depth — fence
          contributions parked on open aggregates plus batches queued
          behind the serial apply CPU — reaches this threshold. Shed
          requests get a structured [Session.busy_error] whose
          [retry_after] hint is sized to the current apply backlog, so
          well-behaved clients (the Session RPC layer honours the hint)
          retry once the queue has had time to drain, and never sooner
          than 1 ms. [0] (the default) disables admission control. *)
}

val default_config : config
(** 100,000 cached objects, 0.3 us per applied tuple, no setroot
    replication, no admission control.

    The rest of the cost model is fixed: a put costs 1 us plus 1.5 ns
    per value byte of hashing and serialization; values serialized to
    at most 256 bytes are stored inline in their directory entry, as in
    the prototype, so reading one small value faults in its whole
    directory; and a fence aggregates over
    {!Flux_cmb.Collective.window}, forwarding by its policy. *)

val replicated_config : config
(** {!default_config} with [setroot_interiors] on, so acked commits
    survive master loss. The chaos, shard-chaos and ckpt harnesses run
    under it. *)

type t
(** Per-rank instance state (introspection handle for tests/benches). *)

val load : Session.t -> ?config:config -> unit -> t array
(** Load the module on every rank of the session; index [i] holds rank
    [i]'s instance, and rank 0 is the master. *)

(** {1 Routed loading (distributed masters)}

    The paper's stated future-work direction is distributing the KVS
    master. {!Volumes} builds on this hook: a store instance can serve a
    different topic namespace, put its master on any rank, and aggregate
    along a relabeled tree reached over the rank-addressed overlay. *)

type routing = {
  rt_service : string;  (** topic service component, e.g. ["kvs-2"] *)
  rt_master : int;  (** rank initially holding the authoritative store *)
  rt_parent : master:int -> int option;
      (** aggregation-tree parent of this rank, given the rank this
          instance currently believes is master — so a routed family can
          re-root (and heal) its relabeled tree after a failover *)
  rt_children : master:int -> int list;
  rt_direct : bool;
      (** send upstream over the rank-addressed plane (required when the
          aggregation tree differs from the session's RPC tree);
          retransmits re-resolve [rt_parent], following the healed tree *)
}

val load_routed :
  Session.t -> ?config:config -> routing:(int -> routing) -> unit -> t array
(** Load one store family under the given per-rank routing, on every
    rank. Registers a liveness watch like {!load}; the election order is
    the volume's virtual ring (static master first, then successive
    ranks modulo the session size), so a dead master's role stays inside
    its own volume's labeling instead of collapsing onto rank 0. *)

val set_fence_hold :
  t ->
  (name:string -> ri:Proto.root_info -> release:(unit -> unit) -> unit) option ->
  unit
(** Install the cross-shard fence hook (phase 1 of {!Volumes}' two-phase
    epoch-merge). When set, a master fence that has gathered all
    [nprocs] contributions computes — but does not adopt — its new root,
    then calls the hook with the fence [name] and the frozen proposal
    [ri]; participant responses, root adoption and the [setroot]
    broadcast all wait until [release] runs. Applies arriving while a
    fence is held are deferred behind it (and still counted by
    {!intake_depth}, so admission control keeps the hold queue bounded).
    A demotion or rejoin drops the hold: the parked participants'
    idempotent retransmits re-aggregate at the successor master, which
    re-prepares with the coordinator. *)

(** {1 Failover and rejoin}

    {!Election} decides; this module performs its effects. Loading via
    {!load} registers a session liveness watch. When the master is
    marked down, the lowest live service rank freezes non-pure requests
    and asks its peers: if one names itself master it follows it,
    otherwise it adopts the newest (epoch, version, root) heard, moves
    to a fresh epoch, promotes its object cache to the authoritative
    store (faulting missing objects in from peers), and re-announces via
    an epoch-stamped [setroot]. Announcements from stale epochs are
    ignored everywhere, so a deposed master cannot split-brain. When a
    rank is marked up again it freezes, forgets whom it believed master,
    publishes a [hello], and thaws once a setroot names a live master
    other than itself (one naming itself thaws it only once it is
    master). While it rejoins, any death may be the master's: as the lowest live
    rank it takes over. Mastership is non-preemptive: a revived lower
    rank rejoins as a slave, as the session's overlay root does. A
    deposed master answers the fences parked at it with an error and
    forgets their completed records. {!load_routed} families fail over the same
    way, with the election preference in virtual-ring order (see
    {!load_routed}). *)

val is_master : t -> bool

val acting_master : t array -> int option
(** The highest live rank whose instance (index [r] is rank [r]'s) holds
    mastership. A dead rank's instance believes it leads until it
    rejoins, so dead ranks are skipped. *)

val epoch : t -> int
(** Mastership epoch this instance has reached (0 until a failover). *)

val version : t -> int
val root_ref : t -> Sha1.digest
val cached_objects : t -> int
(** Objects in the slave cache (or the master's authoritative store). *)

val store_bytes : t -> int
(** Total serialized bytes of objects held (cache or store). *)

val dirty_count : t -> int
(** Tuples awaiting commit on this node. *)

val loads_issued : t -> int
(** Upstream fault-in requests this instance has sent (coalescing means
    this can be far smaller than the number of local misses). *)

val intake_depth : t -> int
(** Write-side requests accepted but not yet answered: pending fence
    contributions plus the serialized apply backlog. The quantity
    {!config.admission_max_intake} bounds. *)

val intake_hwm : t -> int
(** Peak {!intake_depth} observed at the admission gate (tracked only
    while admission control is enabled). *)

val admission_sheds : t -> int
(** Requests rejected with a busy error by admission control. *)

(** {1 Snapshot / restore}

    The content-addressed design makes a snapshot *be* a root hash; these
    walk the reachable object set behind it into a durable serialized
    store and back (see {!Snapshot}). Both are instantaneous in virtual
    time — they model an out-of-band dump/load, not wire traffic; the
    wire-level equivalent is {!Snapshot.capture}. *)

val snapshot : t -> (Snapshot.t, string) result
(** Serialize every object reachable from this instance's current root.
    The master holds all of them by construction; on a slave the walk
    fails cleanly if its lossy cache is missing one. Updates the
    [ckpt.snapshot] / [ckpt.bytes] counters when metrics are attached;
    no duration is recorded, since the walk takes no virtual time and
    host time would make metrics differ between identical runs. *)

val restore : t -> Snapshot.t -> (unit, string) result
(** Rebuild the authoritative store from a verified snapshot, adopt its
    (epoch, version, root), and announce the restored root to every
    slave via [setroot]. Master only, forward only: a snapshot behind
    (or divergent from) the current version is refused — restoring must
    never silently lose acked writes. Re-verifies integrity, so a
    corrupt store of unknown provenance returns the structured error
    text rather than poisoning the store. Updates the [ckpt.restore] /
    [ckpt.bytes] counters when metrics are attached. *)

val set_tracer_all : t array -> Flux_trace.Tracer.t -> unit
(** Emit category ["kvs"] events from every instance: one per handled
    request method (put/get/commit/fence/flush/load/...) with the rank
    and the request's causal context, plus the fence/commit lifecycle —
    [fence.enter] at each client's broker, [flush.forward] per tree
    reduction hop, [commit.begin] when the master has heard every
    contribution, [apply], [setroot.publish] and per-rank
    [setroot.deliver] — and [fault_in] spans with their duration. These
    are the events {!Flux_trace.Export.fence_critical_path} consumes. *)

val set_metrics_all : t array -> Flux_trace.Metrics.t -> unit
(** Per-rank numeric aggregation from every instance:
    [kvs.cache.hit]/[kvs.cache.miss] counters on every object lookup,
    [kvs.fault_in] counts with a [kvs.fault_in.latency] histogram, and
    at the master [kvs.commits] with a [kvs.commit.tuples] batch-size
    histogram. With admission
    control enabled the master also maintains [kvs.intake] /
    [kvs.intake_hwm] gauges and a [kvs.admission.shed] counter. *)
