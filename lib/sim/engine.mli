(** Deterministic discrete-event simulation engine.

    A single engine owns virtual time and a priority queue of pending
    events. Events scheduled for the same instant fire in scheduling
    order, so simulations are bit-for-bit reproducible. The engine is
    the substrate standing in for the paper's physical clusters. *)

type t

type handle
(** Cancellation handle for a scheduled event. *)

val create : unit -> t
(** A fresh engine with the clock at 0. *)

val now : t -> float
(** Current virtual time in seconds. *)

val compactions : t -> int
(** Number of compaction passes run since creation. The engine compacts
    its queue — dropping cancelled entries in one O(n) pass — whenever
    they outnumber the live entries. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] fires [f] at [now t +. delay]. Negative and
    NaN delays raise [Invalid_argument]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** [schedule_at t ~time f] fires [f] at absolute [time]; raises
    [Invalid_argument] if [time] is NaN or in the past. *)

val cancel : handle -> unit
(** [cancel h] keeps [h]'s event from firing and releases its callback at
    once, so a disarmed timer that still waits in the queue keeps nothing
    its closure captured reachable. Cancelling an already-fired or
    cancelled event is a no-op. *)

val every : t -> period:float -> (unit -> unit) -> handle
(** [every t ~period f] fires [f] every [period] seconds starting at
    [now + period] until cancelled. *)

val run : ?until:float -> t -> unit
(** [run t] executes events until the queue drains (or virtual time
    exceeds [until], leaving later events queued and the clock at
    [until]). Raises [Invalid_argument] if [until] is before [now t].
    Re-raises the first exception escaping an event callback. *)

val step : t -> bool
(** [step t] executes the single next event; [false] when none remain. *)

val events_executed : t -> int
(** Total callbacks fired since creation (a determinism fingerprint). *)
