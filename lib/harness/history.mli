(** One run's record of what the KVS acknowledged and what clients saw,
    checked as each operation is recorded, so every violation keeps its
    virtual time and its order. {!verify} reads every acked key back at
    the end. The history also owns the run's kills and revives.

    Violations are oldest first, each prefixed [t=<virtual time>]. A bad
    read is [LABEL: key K diverged] or [LABEL: key K unreadable: E]. *)

module Json = Flux_json.Json

type t

val create : ?flight:Flux_trace.Flight.t -> Flux_cmb.Session.t -> t
(** On the session's clock; the first violation dumps [flight] once. *)

val violate : t -> ('a, unit, string, unit) format4 -> 'a
val violations : t -> string list

(** {1 Acknowledged writes and reads} *)

val ack : t -> string -> Json.t -> unit
(** [ack h key v]: the KVS acknowledged [key] = [v]. A later ack replaces
    [v] and clears {!unknown}; the key keeps its first ack's place and
    time. *)

val unknown : t -> string -> unit
(** A later write of the key errored: {!verify} skips it until the next
    ack. *)

val expected : t -> string -> Json.t
(** The value last acked; raises [Not_found] if none was. *)

val check : t -> label:string -> key:string -> expect:Json.t -> (Json.t, string) result -> unit
(** A read of [key] returned the result: another value, or none, is a
    violation. *)

val verify : t -> label:string -> (string -> (Json.t, string) result) -> int
(** From a simulated process, {!check} every acked key not marked
    unknown, in first-ack order, each violation adding the key's first
    ack time. Returns the number of keys read. *)

(** {1 Versions} *)

val observe : t -> who:string -> label:string -> int -> unit
(** A version lower than the highest [who] has seen is a regression. *)

val committed : t -> who:string -> int -> unit
(** [who]'s commit must be acked at a version newer than any it saw. *)

(** {1 Kills and revives} *)

val kill : t -> int -> unit
(** Mark the rank down; a no-op if it is down. *)

val revive : t -> int -> unit
(** Mark the rank up; a no-op if it is up. *)

val outage : t -> int -> for_:float -> unit
(** From a simulated process: kill, sleep [for_], revive. *)

val dead : t -> int list
(** Killed and not yet revived, oldest kill first. *)

val kills : t -> int
val revives : t -> int
val first_kill : t -> float option
