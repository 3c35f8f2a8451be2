(** The [mon] comms module (Table I): sampling "scripts" stored in the
    KVS activate heartbeat-synchronized sampling; samples are reduced up
    the tree and the aggregate is stored back into the KVS.

    In the prototype the scripts are Linux shell snippets; here a
    sampler is an OCaml function registered by name — the activation
    path (name under [conf.mon.script] in the KVS, picked up by every
    rank on the heartbeat) is preserved. *)

type sample = { s_min : float; s_max : float; s_sum : float; s_count : int }

type t

val register_sampler : string -> (rank:int -> epoch:int -> float) -> unit
(** Globally register a sampler implementation. *)

val load : Flux_cmb.Session.t -> hb:Hb.t array -> unit -> t array

val activate : Flux_cmb.Api.t -> script:string -> (unit, string) result
(** Store the sampler name in the KVS ([conf.mon.script]) and commit;
    sampling starts at the next heartbeat on every rank. Blocking. *)

val deactivate : Flux_cmb.Api.t -> (unit, string) result

val latest_aggregate : t -> (int * sample) option
(** Root only: last (epoch, aggregate) written to the KVS under
    [mon.<script>.<epoch>]. *)

val samples_taken : t -> int
