(** The [barrier] comms module: collective barriers across process
    groups (Table I).

    Processes enter a named barrier declaring the total participant
    count; enters are counted and aggregated hop by hop up the RPC tree
    (the reduction idiom, {!Flux_cmb.Collective}); when the overlay root
    has seen [nprocs] enters, completion responses cascade back down,
    releasing every participant. The root is whichever broker has no
    tree parent, so barriers keep working after rank 0 is marked down.
    Barrier names must be fresh per use. *)

type t

val load : Flux_cmb.Session.t -> unit -> t array
(** Load on every rank, aggregating enters over
    {!Flux_cmb.Collective.window}. *)

val enter : Flux_cmb.Api.t -> name:string -> nprocs:int -> (unit, string) result
(** Blocking enter; must run inside a {!Flux_sim.Proc} body. *)

val set_tracer_all : t array -> Flux_trace.Tracer.t -> unit
(** Emit category ["barrier"] events from every instance: [enter] per
    client contribution (with the request's causal context), [forward]
    per aggregate hop up the tree (child span of the first latched
    contribution, threaded into the upstream RPC), and [exit] when the
    root releases the barrier (child span of the contribution that
    completed it, threaded into the [barrier.exit] publish). *)
