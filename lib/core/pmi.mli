(** PMI-style bootstrap over the KVS.

    The paper notes that a custom PMI library lets MPI run-times
    bootstrap through the Flux KVS and collective barrier modules: each
    rank publishes its connection "business card", everyone fences, and
    each rank reads its peers' cards. This module is that library; it is
    also what makes the KAP producer/sync/consumer pattern the critical
    path of real process-management services. *)

type t

val init : Flux_cmb.Session.t -> jobid:string -> rank:int -> node:int -> size:int -> t
(** [init sess ~jobid ~rank ~node ~size] prepares rank [rank] of [size]
    for job [jobid], talking to the broker on [node]. *)

val put : t -> key:string -> string -> (unit, string) result
(** Stage a key-value pair (e.g. an address) under this rank's
    namespace; visible to peers only after {!exchange}. *)

val exchange : t -> (unit, string) result
(** Collective commit (kvs_fence across all [size] ranks): returns once
    every rank's staged data is globally visible. *)

val get : t -> from_rank:int -> key:string -> (string, string) result
(** Read a peer's value after {!exchange}. *)

val finalize : t -> (unit, string) result
(** Final barrier: returns once every rank has called it. *)
