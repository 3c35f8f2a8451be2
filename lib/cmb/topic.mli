(** Hierarchical message topic namespace.

    A message sent to ["kvs.put"] is routed to the [kvs] comms module
    and internally to its handler for [put]. Topics are dot-separated,
    non-empty words. *)

val is_valid : string -> bool
(** Non-empty, dot-separated, each component non-empty, characters from
    [a-z A-Z 0-9 _ -]. *)

val service : string -> string
(** [service "kvs.put"] is ["kvs"] — the comms-module name component.
    Does not validate: {!Message.request} and {!Message.event} reject an
    invalid topic, and every routed topic comes from a message. *)

val method_ : string -> string
(** [method_ "kvs.put"] is ["put"]; the empty string when the topic has
    a single component. Does not validate, like {!service}. *)

val prefixed : prefix:string -> string -> bool
(** [prefixed ~prefix topic] is component-wise prefix matching:
    ["hb"] prefixes ["hb.pulse"] but not ["hbx.pulse"]. An empty prefix
    matches everything. *)
