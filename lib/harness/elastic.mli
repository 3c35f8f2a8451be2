(** Closed-loop elasticity soak: one bursty open-loop task stream run
    against a child instance under three protection regimes —
    [Unprotected] (no admission bound, no controller: the queue grows
    without bound and scheduler-cycle cost grows with it, collapsing
    goodput), [Protected] (PR 5-style static protection: arrivals are
    shed at a queue cap, goodput plateaus at the child's fixed
    capacity), and [Elastic] (same cap, plus the
    {!Flux_core.Elastic} controller growing the child out of the
    root's headroom when the telemetry plane reports queue pressure,
    and shrinking it back — drain-before-shrink included — once the
    burst subsides).

    Tasks are wexec launches whose bodies commit a KVS key before
    completing, so the harness can audit the rescale safety guarantee
    directly: every acked (completed) task's write is present after
    the run, across every grow, preemption and requeue — zero
    acked-write loss. Convergence is audited too: once arrivals stop,
    the controller must stop growing. *)

module Detect = Flux_trace.Detect
module Ctl = Flux_core.Elastic

type mode = Unprotected | Protected | Elastic

val mode_to_string : mode -> string

type config = {
  seed : int;
  size : int;  (** session ranks; the root instance owns them all *)
  fanout : int;
  child_nodes : int;  (** the worker child's initial pool *)
  mode : mode;
  duration : float;  (** arrival window, sim-seconds *)
  drain : float;  (** controller/telemetry run-on after arrivals stop *)
  queue_cap : int;  (** Protected/Elastic submission-shed bound *)
  policy : Ctl.policy;  (** controller policy (Elastic mode only) *)
  silence_at : float option;
      (** stop the telemetry plane at this sim time — the
          telemetry-silent fallback case *)
}
(** The stream and plane are fixed: arrivals at 15/s with 4x bursts in
    the first half of every 1 s period; exponential task durations of
    mean 0.2 s, at least 20 ms; a telemetry rollup every 0.25 s with a
    16-epoch trend window and a 3/epoch queue-growth alert slope; a
    scheduler cost model charging 2 ms per queued job per cycle; and no
    grow later than 1 s after arrivals stop. *)

val default : config
(** 32 ranks, child of 4, 6 s of arrivals + 2 s drain, cap 40,
    pressure-driven controller (band 3..12, step 4, nodes 2..24,
    cooldown 0.5 s), [Elastic] mode. *)

type report = {
  e_mode : mode;
  e_offered : int;  (** arrivals generated (shed ones included) *)
  e_submitted : int;
  e_shed : int;
  e_acked : int;  (** logical tasks with a completed attempt *)
  e_failed : int;  (** failed attempts (preemptions included) *)
  e_cancelled : int;  (** attempts cancelled at the horizon *)
  e_goodput : float;  (** acked / duration *)
  e_queue_peak : int;
  e_nodes_final : int;
  e_nodes_peak : int;
  e_grows : int;  (** applied grow decisions *)
  e_shrinks : int;  (** applied shrink decisions (drains included) *)
  e_denied : int;
  e_drains : int;
  e_decisions : int;  (** every controller tick's decision *)
  e_fallback_entries : int;
  e_telem_epochs : int;
  e_alerts : int;  (** root-raised telemetry alerts *)
  e_write_loss : int;  (** acked tasks whose KVS key was missing *)
  e_trajectory : (float * int) list;  (** sampled (time, child nodes) *)
  e_fingerprint : string;  (** determinism witness *)
  e_violations : string list;
  e_events : int;
}

val run : config -> report
(** One soak under one regime. Raises [Invalid_argument] unless the
    child has 2..size-1 and at least 8 ranks, the duration, queue cap
    and seed are positive, [drain] and [silence_at] are non-negative and
    the policy is valid. *)

val harness : Harness.t
(** The bench sweep: the three regimes on one stream plus a same-seed
    rerun of [Elastic]; elastic must recover >= 1.5x protected goodput
    with identical fingerprints. *)
