(** Client access to a local CMB broker.

    In the prototype, external programs (the [flux] utility, PMI
    libraries, tools) talk to the broker on their node over a UNIX
    domain socket; this module models that hop with the configured
    local-delivery cost and exposes blocking RPC wrappers for use inside
    {!Flux_sim.Proc} process bodies. *)

type t
(** A client connection to the broker at one rank. *)

val connect : Session.t -> rank:int -> t
val rank : t -> int
val session : t -> Session.t

val rpc :
  t ->
  ?timeout:float ->
  ?idempotent:bool ->
  ?trace_ctx:Flux_trace.Tracer.ctx ->
  topic:string ->
  Flux_json.Json.t ->
  Session.reply
(** Blocking RPC injected at the local broker and routed upstream. Only
    valid inside a process body. Returns [Error "timeout"] if the
    deadline (see {!Session.request_up}'s retry policy) expires;
    [timeout]/[idempotent]/[trace_ctx] are forwarded to {!Session.request_up}
    ([trace_ctx] rides the message envelope out-of-band, so it never
    perturbs payload sizes or simulated timing). *)

val rpc_async :
  t ->
  ?timeout:float ->
  ?attempts:int ->
  ?idempotent:bool ->
  ?trace_ctx:Flux_trace.Tracer.ctx ->
  topic:string ->
  Flux_json.Json.t ->
  reply:(Session.reply -> unit) ->
  unit

val rpc_rank : t -> dst:int -> topic:string -> Flux_json.Json.t -> Session.reply
(** Blocking rank-addressed RPC over the ring plane: one transmission
    with the session's 2 s deadline. *)

val publish : t -> topic:string -> Flux_json.Json.t -> unit

val subscribe : t -> prefix:string -> (topic:string -> Flux_json.Json.t -> unit) -> unit
(** Register an event callback; fires for every event whose topic has
    the given component-wise prefix ({!Session.subscribe}). *)

val subscribe_once : t -> topic:string -> (topic:string -> Flux_json.Json.t -> unit) -> unit
(** {!Session.subscribe_once} for a client: one event, exact topic. *)
