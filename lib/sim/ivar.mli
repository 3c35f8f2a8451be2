(** Write-once synchronization cells.

    An ivar starts empty and is filled exactly once; callbacks registered
    before the fill run (as fresh engine events) when it fills, callbacks
    registered after run immediately via a zero-delay event. Processes
    block on ivars with {!Proc.await}. *)

type 'a t

val create : unit -> 'a t

val fill : Engine.t -> 'a t -> 'a -> unit
(** [fill eng iv v] sets the value and schedules all waiters at the
    current instant. Raises [Invalid_argument] on double fill. *)

val on_full : Engine.t -> 'a t -> ('a -> unit) -> unit
(** [on_full eng iv f] runs [f v] once [iv] holds [v] (possibly already). *)
