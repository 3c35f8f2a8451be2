(** Closed-loop elasticity: an autoscale controller that turns the
    telemetry plane's alerts and rolled-up queue gauges into
    {!Instance.request_grow}/{!Instance.request_shrink} calls under the
    paper's parental-consent rule.

    The control law is a pure function ({!decide}) over an explicit
    {!memory} — hysteresis band, per-decision step limit, min/max node
    clamps, and a full cooldown (any action freezes {e all} actions for
    [p_cooldown] sim-seconds, so a grow can never be reversed by a
    shrink inside one cooldown window). The driver around it is thin:
    an {!Flux_sim.Engine.every} tick that reads the latest rolled-up
    pressure from the root's {!Flux_trace.Series}, consumes the
    alert-armed flag set by {!Flux_modules.Telem.on_alert}, applies the
    decision, and records it (trace event, metrics, flight dump).

    Degradation is explicit: when the rollup stream goes silent for
    longer than [p_silence] the controller holds every decision
    ("telemetry-silent") rather than acting on stale data — the system
    falls back to whatever static protection (admission control,
    submission-side shedding) the instance already runs, and resumes
    automatically when rollups return. Everything is opt-in: a session
    that never creates a controller is bit-for-bit unchanged. *)

module Telem = Flux_modules.Telem
module Detect = Flux_trace.Detect

(** {1 Pure control law} *)

type policy = {
  p_metric : string;
      (** the rolled-up gauge watched as pressure (e.g. a queue-depth
          gauge the workload publishes) — also the metric whose
          [Queue_growth] alerts arm grow decisions *)
  p_high : float;  (** pressure at or above this is grow territory *)
  p_low : float;
      (** pressure at or below this is shrink territory; the dead band
          [p_low < pressure < p_high] holds (hysteresis) *)
  p_step : int;  (** max nodes moved per decision *)
  p_min_nodes : int;  (** never shrink the instance below this *)
  p_max_nodes : int;  (** never grow the instance above this *)
  p_cooldown : float;
      (** sim-seconds after {e any} action during which every further
          action is held — the anti-flap guarantee *)
  p_period : float;  (** decision tick period, sim-seconds *)
  p_require_alert : bool;
      (** when true a grow fires only on a tick armed by a
          [Queue_growth] alert on [p_metric]; raw pressure alone holds
          ("awaiting-alert") *)
  p_silence : float;
      (** rollups older than this many sim-seconds mean telemetry is
          silent: hold everything and fall back to static protection *)
}

val default_policy : policy
(** metric ["elastic.queue"], band 4..32, step 2, nodes 1..64,
    cooldown 1.0 s, period 0.25 s, alert-gated grows, silence 1.0 s. *)

val validate_policy : policy -> (unit, string) result
(** Structural checks: [p_low < p_high], positive step/period/cooldown,
    [0 < p_min_nodes <= p_max_nodes], non-negative silence. *)

type decision =
  | Grow of int  (** ask the parent for this many nodes *)
  | Shrink of int  (** return this many nodes to the parent *)
  | Hold of string  (** do nothing; the reason is the interesting part *)

type inputs = {
  in_now : float;  (** sim time of the decision tick *)
  in_pressure : float option;
      (** latest rolled-up value of [p_metric]; [None] before the first
          rollup carrying it *)
  in_nodes : int;  (** instance pool size right now *)
  in_alert : bool;  (** a matching alert armed this tick *)
  in_fresh : bool;  (** a rollup landed within the last [p_silence] s *)
}

type memory = { m_last_action : float  (** sim time of the last applied action *) }

val fresh_memory : memory
(** No action yet ([m_last_action = neg_infinity]): the first decision
    is never cooldown-held. *)

val decide : policy -> memory -> inputs -> decision
(** The control law. Pure and total: same policy, memory and inputs
    always produce the same decision. Grow/Shrink steps are clamped so
    applying them keeps the pool inside [p_min_nodes .. p_max_nodes]
    and never moves more than [p_step] nodes. Within [p_cooldown] of
    [m_last_action] the answer is always a [Hold]. *)

val remember : memory -> now:float -> decision -> memory
(** Fold a decision into the memory: actions (including denied ones —
    a parent that said no is backoff-worthy) stamp [m_last_action];
    holds leave it alone. *)

(** {1 Driver} *)

type t

val create :
  Flux_cmb.Session.t ->
  instance:Instance.t ->
  telem:Telem.t array ->
  ?policy:policy ->
  unit ->
  t
(** Wire a controller to [instance], watching [telem]'s root rollups.
    Registers an alert subscriber (arms the next tick on a
    [Queue_growth] alert for [p_metric]) and a rollup subscriber (the
    freshness watchdog). Decisions do not begin until {!start}. Raises
    [Invalid_argument] on a policy that fails {!validate_policy}. *)

val set_tracer : t -> Flux_trace.Tracer.t -> unit
(** Emit category ["elastic"] events: [decision] on every tick (with
    the decision, pressure, node count and trigger), plus
    [fallback]/[recover] edges on telemetry-silence transitions. *)

val set_metrics : t -> Flux_trace.Metrics.t -> unit
(** Count decisions into [elastic.grow] / [elastic.shrink] /
    [elastic.hold] / [elastic.denied] and track the pool size in the
    [elastic.nodes] gauge (rank 0). *)

val set_flight : t -> Flux_trace.Flight.t -> unit
(** Dump the flight recorder on every applied grow/shrink decision,
    with the triggering alert (or raw pressure) in the reason — the
    post-hoc answer to "why did the controller act here?". *)

val start : ?until:float -> t -> unit
(** Arm the decision timer (period [p_period], first tick one period
    from now). [?until] disarms it that many sim-seconds from now.
    Idempotent while running. *)

(** {1 Introspection} *)

val decisions : t -> (float * decision) list
(** Every decision in tick order, stamped with its sim time. Same-seed
    runs produce identical lists. *)

val actions : t -> (float * decision) list
(** Just the applied [Grow]/[Shrink] decisions, in order. *)

val denied : t -> int
(** Resizes the parent chain refused ([Resize_exhausted] on grow — the
    structured fallback path when capacity is denied). *)

val drains : t -> int
(** Shrinks answered with [Resize_draining] (preemption in progress). *)

val fallback_entries : t -> int
(** Times the controller entered telemetry-silent fallback. *)

val fingerprint : t -> string
(** Digest of the full timed decision sequence — equal across
    same-seed runs, the determinism witness harnesses compare. *)
