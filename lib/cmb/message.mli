(** CMB messages.

    All CMB messages have a uniform multi-part format: a header frame
    (kind, topic, routing metadata) and a JSON payload frame. The
    [size] model mirrors what the prototype would put on the wire and is
    what the network simulator charges. *)

type kind = Request | Response | Event

type t = {
  kind : kind;
  topic : string;
  nonce : int;  (** matches a response to its request; 0 for events *)
  origin : int;  (** rank where the request entered the CMB *)
  dst : int option;  (** rank-addressed (ring plane) messages only *)
  seq : int;  (** event sequence number assigned by the session root *)
  route : int list;
      (** broker ranks traversed upstream, most recent first; responses
          pop this stack to retrace the path *)
  error : string option;  (** set on error responses *)
  payload : Flux_json.Json.t;
  trace : Flux_trace.Tracer.ctx option;
      (** causal trace context, propagated to responses (record
          inheritance) and across retransmits (same message value);
          [None] unless a tracer is attached. Excluded from [size] —
          instrumentation must not perturb the simulation. *)
}

val request : ?dst:int -> topic:string -> origin:int -> nonce:int -> Flux_json.Json.t -> t
(** Raises [Invalid_argument] on an invalid topic. *)

val response : of_:t -> Flux_json.Json.t -> t
(** [response ~of_:req payload] builds the matching response, inheriting
    topic, nonce, origin and route. *)

val error_response : of_:t -> string -> t

val event : topic:string -> origin:int -> Flux_json.Json.t -> t

val size : t -> int
(** Serialized size in bytes: header estimate plus JSON payload size. *)

val with_trace : t -> Flux_trace.Tracer.ctx -> t

val push_hop : t -> int -> t
val pop_hop : t -> (int * t) option
