(** The tree collective: a named count of [nprocs] contributions reduced
    hop by hop up an aggregation tree, the paper's "barriers /
    reductions" over the RPC tree. The [barrier] module (Table I) and the
    KVS fence (Sec. IV) are its two callers: the barrier carries no
    content, the fence carries tuples and objects.

    Every decision is {!Tally}'s: when to forward, what a failed forward
    does, when the root completes and what a late or duplicate
    contribution gets. This module keeps each name's {!Tally.state} at
    one broker, feeds it the contributions, the armed checks, the
    forwards' replies, parent changes, aborts and demotions, and
    performs the effects in order through the caller's transport. The
    caller keeps its content, its payload and its forward RPC.

    A forward carries the {!Tally.leaf} identities it covers, and the
    root counts each once, so exactly-once is decided there and nowhere
    else: a retransmit, a refold or a re-aggregation adds nothing. The
    root keeps a completed name with its reply until a demotion drops
    it, and forgets completed names once it holds more than 8,192. *)

module Json = Flux_json.Json

type reply = (Json.t, string) result

type 'c item = { req : Message.t; content : 'c }
(** A parked request and the caller's content it carried. *)

type 'c batch = {
  name : string;
  nprocs : int;
  leaves : Tally.leaf list;  (** the leaves a forward covers *)
  items : 'c item list;  (** newest first *)
  ctx : Flux_trace.Tracer.ctx option;  (** the first item's causal context *)
}
(** What one forward carries upstream, or what the root completed. *)

type 'c t
(** One caller's collectives at one broker. *)

val create :
  Session.broker ->
  final:(string -> bool) ->
  is_root:(unit -> bool) ->
  parent:(unit -> int option) ->
  children:(unit -> int list) ->
  send:('c batch -> (reply -> unit) -> unit) ->
  answer:(Message.t -> reply -> unit) ->
  complete:('c batch -> last:Flux_trace.Tracer.ctx option -> settle:(reply -> unit) -> unit) ->
  'c t
(** [final] marks an error reply that is never retried. [is_root],
    [parent] and [children] are asked at each step. [send] carries a
    batch upstream and calls back with its reply; [answer] replies to a
    parked request. [complete] runs at the root when a name's distinct
    leaves count [nprocs]; [last] is the causal context of the
    contribution that completed it, and [settle] records the reply the
    root then answers late contributions with. *)

val leaves_to_json : Tally.leaf list -> Json.t
val leaves_of_json : Json.t -> Tally.leaf list

val enter : 'c t -> name:string -> nprocs:int -> count:int -> Message.t -> 'c -> unit
(** [count] enters of this broker's own clients, parked until the
    collective completes. *)

val aggregate :
  'c t -> name:string -> nprocs:int -> leaves:Tally.leaf list -> from_child:int -> Message.t -> 'c -> unit
(** A child's forward, covering [leaves]. *)

val reroute : 'c t -> unit
(** The parent may have changed: if it has, re-forward at once every
    forward still out, or fold them in if this broker became the root. *)

val withdraw : 'c t -> string -> reply -> unit
(** Answer the requests [name] has pending and accumulating here with
    the reply, and drop them. A completed name is left alone. *)

val drop_roots : 'c t -> reply -> unit
(** Drop every name's root side, accumulating or completed, answering
    the requests parked there with the reply. *)

val reset : 'c t -> unit
(** Drop every collective without answering anyone. *)

val open_at_root : 'c t -> string -> bool
(** [name] is accumulating at this root. *)

val parked_at_root : 'c t -> int
(** Requests parked on names accumulating at this root. *)
