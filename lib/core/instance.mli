(** A Flux instance: an independent RJMS that owns a resource pool,
    runs a scheduler over it, and can recursively host child instances
    (Section III's job hierarchy model).

    The three hierarchy rules are enforced here:
    - {e parent bounding}: a child's pool is carved out of its parent's
      grant and can never exceed it;
    - {e child empowerment}: within those bounds the child schedules
      independently, with its own policy and its own (modeled) scheduler
      CPU — sibling instances schedule concurrently;
    - {e parental consent}: a child grows or shrinks only by asking its
      parent, which may recursively ask {e its} parent.

    Instances launch [App] payloads through the wexec comms module on
    the shared center session (the session must have kvs, barrier and
    wexec loaded); [Sleep] payloads model synthetic work for scheduler
    studies; [Child] payloads create nested instances. *)

type t

(** {1 Scheduler cost model}

    A scheduling cycle costs 500 us, plus 2 us per pool node, plus
    {!decision_per_job} per queued job, serialized on the instance's
    scheduler CPU. Every job start adds {!start_cost} of serialized
    controller work, and creating a child instance costs 2 ms plus
    100 us per child node. Only the per-job decision cost is settable,
    per root instance, and children inherit it. *)

val decision_per_job : float
(** The default per-job decision cost, 20 us. *)

val start_cost : float
(** Controller work per job start, 10 ms (launch bureaucracy: prolog,
    credential, RPCs) — the per-job throughput limit of a monolithic
    controller. *)

val cycle_cost : decision_per_job:float -> nodes:int -> queued:int -> float
(** One scheduling cycle over [nodes] pool nodes and [queued] jobs. *)

val create_root :
  Flux_cmb.Session.t ->
  ?policy:string ->
  ?decision_per_job:float ->
  ?power_budget:float ->
  ?fs_bandwidth:float ->
  ?provenance:bool ->
  name:string ->
  unit ->
  t
(** Root instance owning every rank of the session. [provenance]
    (default false) records job state transitions in the KVS under
    [<job_key jid>.state], beside the job's task records
    ({!Flux_modules.Wexec.job_key}: [lwj.b<h>.<jid>], bucketed 16 ways
    by a hash of the job id so that a commit never re-hashes a
    directory listing every job of the instance). *)

(** {1 Identity and introspection} *)

val name : t -> string
val pool : t -> Pool.t
val children : t -> t list
val depth : t -> int
val jobs : t -> Job.t list
(** Every job ever submitted to this instance, in submission order. *)

val queue_length : t -> int
val running_count : t -> int

(** {1 Workload} *)

val submit : ?jid:string -> t -> spec:Jobspec.t -> payload:Job.payload -> Job.t
(** Enqueue a job now. Raises [Invalid_argument] on an invalid spec or
    a spec whose minimum node count exceeds the instance pool. *)

val submit_plan : t -> Job.submission list -> unit
(** Enqueue each submission after its [sub_after] delay. *)

val cancel : t -> jid:string -> bool
(** Cancel a pending or running job; false if unknown or terminal. *)

val on_job_failed : t -> (t -> Job.t -> unit) -> unit
(** [on_job_failed t f] calls [f owner job] whenever a job transitions
    to [Failed] — in this instance or any descendant ([owner] is the
    instance the job belongs to; failures bubble up the ancestor
    chain), so a center-level requeue policy registers once at the root
    and sees the whole tree. Hooks run synchronously at the transition,
    in registration order, before the dying job's grant is released.
    Jobs preempted by a draining {!request_shrink} are excluded: the
    instance requeues those itself. *)

(** {1 Elasticity (parental-consent rule)} *)

type resize_error =
  | Resize_invalid of int  (** non-positive node count requested *)
  | Resize_nested  (** a dedicated comms session cannot be resized *)
  | Resize_root  (** the root has no parent to trade nodes with *)
  | Resize_exhausted  (** the parent chain had no free node to move *)
  | Resize_draining of int
      (** no node moved yet, but this many are being drained: running
          wexec jobs were preempted (killed and requeued under fresh
          attempt ids) and their nodes flow to the parent as the grants
          release — the caller should treat this as an action in
          progress, not a refusal *)

val resize_error_to_string : resize_error -> string

val request_grow : t -> nnodes:int -> (int, resize_error) result
(** Ask the parent chain for more nodes; [Ok n] means [n >= 1] nodes
    were granted and absorbed into this instance's pool (possibly fewer
    than requested). A resize that cannot move a single node is a
    structured error — never [Ok 0] — so elasticity controllers can
    distinguish a partial grant from a silent no-op. *)

val request_shrink : t -> nnodes:int -> (int, resize_error) result
(** Return up to [nnodes] nodes to the parent. Free nodes move
    immediately ([Ok n], [n >= 1] counting only those). A shortfall is
    covered by {e drain-before-shrink}: running wexec jobs are
    preempted newest-first — killed, then requeued on this instance
    under fresh Checkpoint-style attempt jobids ([<jid>.r<k>]) resuming
    from the newest verified manifest any prior attempt recorded — and
    their nodes are donated as the grants release. When nothing is free
    but a drain started, the result is [Error (Resize_draining n)];
    when not even a drain is possible, [Error Resize_exhausted]. A
    preempted job the shrunken pool can no longer hold is handed to the
    {!on_job_failed} chain instead of silently stranding. *)

(** {1 Power (site-wide constraint)} *)

val set_power_cap : t -> float -> unit
(** Impose a power cap on this instance; it also bounds every future
    child. Lowering below current draw stalls new starts until jobs
    finish. A new scheduling cycle is kicked automatically when the cap
    rises. *)

val set_tracer : t -> Flux_trace.Tracer.t option -> unit
(** Emit category ["sched"] events: [job.<state>] on every transition
    (with the job id and node count) and [cycle] per scheduling cycle
    (with queue length). Each job also carries a causal span chain —
    ["submit"] opens a root span (fields [jid], [depth], [queue]) and
    ["match"] a child span when the grant lands (fields [jid], [depth],
    [nodes], [wait]) — which [App] payloads thread through wexec, so a
    traced run decomposes per-level scheduler-hop latency
    ([sched.submit -> sched.match -> wexec.start -> wexec.complete]).
    Children created later inherit the tracer. *)

(** {1 Metrics} *)

type stats = {
  st_completed : int;
  st_failed : int;
  st_cancelled : int;
  st_sched_cycles : int;
  st_mean_wait : float;  (** over completed jobs *)
  st_makespan : float;  (** last completion - first submission *)
  st_node_seconds : float;  (** sum of runtime x nodes over completed jobs *)
}

val stats : t -> stats

val stats_recursive : t -> stats
(** Aggregated over this instance and all descendants. *)
