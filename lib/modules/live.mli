(** The [live] comms module: liveness detection (Table I).

    Each tree node receives heartbeat-synchronized hello messages from
    its children; after a configurable number of missed heartbeats a
    liveness event ([live.down]) is issued for the dead child and the
    session overlays are rewired around it.

    Rejoin: when a rank is marked up again ({!Flux_cmb.Session.mark_up})
    a [live.up] event is published, the rank is removed from every
    instance's declared-down list, and its hello history is reset so its
    liveness clock restarts at the current heartbeat epoch. *)

type t

val load : Flux_cmb.Session.t -> hb:Hb.t array -> unit -> t array
(** Requires the [hb] module to be loaded first. A child is declared
    dead after 3 heartbeats without a hello. *)

val declared_down : t -> int list
(** Ranks this instance has declared dead (root aggregates all). *)
