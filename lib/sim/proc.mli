(** Cooperative simulated processes via OCaml 5 effect handlers.

    Protocol code (KVS commits, barriers, launch scripts, KAP testers)
    is written in direct style: a process calls {!sleep} or {!await}
    and the engine resumes it when the virtual-time condition is met.
    Each process runs to its next suspension point atomically; there is
    no parallelism, so no locking is needed. *)

exception Stopped
(** Raised inside a process that is killed with {!kill}. *)

type pid
(** Identifier of a spawned process. *)

val spawn : Engine.t -> ?name:string -> (unit -> unit) -> pid
(** [spawn eng f] queues process body [f] to start at the current
    instant. Uncaught exceptions (other than {!Stopped}) propagate out
    of {!Engine.run}. *)

val kill : Engine.t -> pid -> unit
(** [kill eng p] makes the next suspension point of [p] raise
    {!Stopped}; a process that already finished is unaffected. Used for
    failure injection. *)

(** {1 Operations valid only inside a process body} *)

val sleep : float -> unit
(** Suspend for the given virtual duration (>= 0). *)

val await : 'a Ivar.t -> 'a
(** Suspend until the ivar is full; returns its value. *)
