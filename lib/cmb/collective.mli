(** The tree collective: a named count of [nprocs] contributions reduced
    hop by hop up an aggregation tree, the paper's "barriers /
    reductions" over the RPC tree. The [barrier] module (Table I) and the
    KVS fence (Sec. IV) are its two callers: the barrier carries no
    content, the fence carries tuples and objects.

    This module owns what the two share: the open collective at each
    broker, the forwarding policy over one {!window}, the accumulation
    at the root, and the exactly-once table that answers a retransmitted
    request from its original. Each caller keeps its content, its
    forward RPC and payload, its tree, its root and what it does when a
    forward fails or the root completes. *)

module Json = Flux_json.Json

val window : float
(** Aggregation window, 200 us. A collective forwards when its count
    reaches [nprocs]; otherwise once every child has been heard and it
    has been quiet for half a window, or once it has been quiet for two
    windows. A contribution arms a check at half a window, and a check
    that does not forward re-arms at a quarter window. *)

(** {1 Exactly-once replies}

    A request that outlives its RPC deadline is retransmitted under the
    same stamp, so a receiver must apply it once. The first arrival of
    [(origin, id)] registers an entry; a retransmit is answered from the
    recorded result, or parked behind the original until it is
    answered. Completed entries are dropped once a table passes 8,192. *)

type dedup

val dedup : Session.broker -> field:string -> dedup
(** One table per broker. A request's id is its integer payload member
    [field]; a request without one is never deduplicated. *)

val stamp : dedup -> int
(** A fresh id for a request this broker sends upstream. *)

val duplicate : dedup -> Message.t -> bool
(** [true] when the request is a retransmit, which has then been
    answered or parked; [false] registers it for the caller to handle. *)

val respond : dedup -> Message.t -> (Json.t, string) result -> unit
(** Answer a request, and the retransmits parked behind it. *)

(** {1 Collectives} *)

type 'c group = private {
  name : string;
  nprocs : int;
  mutable content : 'c;  (** the caller's content since the last forward *)
  mutable count : int;
  mutable heard : int list;  (** children heard from *)
  mutable parked : Message.t list;  (** requests awaiting completion, newest first *)
  mutable ctx : Flux_trace.Tracer.ctx option;  (** first causal context *)
  mutable last_arrival : float;
  mutable armed : bool;
  mutable failures : int;  (** forwards that came back failed *)
}
(** One named collective at one broker, open below the root or
    accumulating at it. *)

type 'c batch = {
  b_count : int;
  b_parked : Message.t list;
  b_ctx : Flux_trace.Tracer.ctx option;
  b_content : 'c;
}
(** What one forward carries upstream, taken out of its group. *)

type 'c t
(** One caller's collectives at one broker. *)

val create :
  Session.broker ->
  fresh:(unit -> 'c) ->
  merge:('c -> into:'c -> unit) ->
  is_root:(unit -> bool) ->
  children:(unit -> int list) ->
  forward:('c group -> 'c batch -> unit) ->
  complete:('c group -> last:Flux_trace.Tracer.ctx option -> unit) ->
  'c t
(** [fresh] makes empty content; [merge] folds a batch's content into a
    group's. [is_root] and [children] are asked at each contribution and
    each check. [forward] sends a batch upstream; it answers the batch's
    requests or hands the batch to {!retry} or {!to_root}, and calls
    {!close} once the reply is settled. [complete] runs at the root when
    a collective's count reaches [nprocs], after it has been removed;
    [last] is the causal context of the contribution that completed
    it. *)

val contribute :
  'c t ->
  name:string ->
  nprocs:int ->
  count:int ->
  from_child:int option ->
  add:('c -> unit) ->
  Message.t ->
  unit
(** Count [count] contributions to [name], add their content with [add]
    and park the request until the collective completes. [from_child] is
    the child an aggregate came from, [None] for a client's own enter. *)

val close : 'c t -> 'c group -> unit
(** Forget the group if nothing has been contributed since its forward. *)

val to_root : 'c t -> 'c group -> 'c batch -> unit
(** Accumulate a taken batch at this broker's root, for a broker that
    became the root while the batch was open. *)

val retry : 'c t -> 'c group -> 'c batch -> delay:(int -> float) -> unit
(** A forward that failed: count the failure, fold the batch back into
    the group as a fresh arrival, and check again after [delay] of the
    failure count. *)

val withdraw : 'c t -> string -> Message.t list list
(** Drop [name] here, below the root and at it, and return the requests
    each side had parked, one list per side that held it. *)

val drop_roots : 'c t -> Message.t list
(** Drop every collective accumulating at this root and return their
    parked requests. *)

val reset : 'c t -> unit
(** Drop every collective without answering anyone. *)

val open_at_root : 'c t -> string -> bool

val parked_at_root : 'c t -> int
(** Requests parked on collectives accumulating at this root. *)
