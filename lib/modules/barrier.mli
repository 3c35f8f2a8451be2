(** The [barrier] comms module: collective barriers across process
    groups (Table I).

    Processes enter a named barrier declaring the total participant
    count; enters are counted and aggregated hop by hop up the RPC tree
    (the reduction idiom); when the session root has seen [nprocs]
    enters, completion responses cascade back down, releasing every
    participant. Barrier names must be fresh per use. *)

type t

val load : Flux_cmb.Session.t -> ?max_pending:int -> unit -> t array
(** Load on every rank, aggregating enters over a 200 us window.
    [max_pending] (default [0] = unbounded) caps the replies an
    instance will hold per barrier name: a direct client enter arriving
    past the cap is shed with a structured [Session.busy_error] (hint:
    the window) instead of being queued — aggregated contributions from
    child instances are never shed, since they carry whole-subtree
    counts. A shed enter was not counted; the client retries. *)

val enter : Flux_cmb.Api.t -> name:string -> nprocs:int -> (unit, string) result
(** Blocking enter; must run inside a {!Flux_sim.Proc} body. *)

val sheds : t -> int
(** Direct client enters rejected busy under [max_pending]. *)

val set_tracer_all : t array -> Flux_trace.Tracer.t -> unit
(** Emit category ["barrier"] events from every instance: [enter] per
    client contribution (with the request's causal context), [forward]
    per aggregate hop up the tree (child span of the first latched
    contribution, threaded into the upstream RPC), and [exit] when the
    root releases the barrier (threaded into the [barrier.exit]
    publish). *)
