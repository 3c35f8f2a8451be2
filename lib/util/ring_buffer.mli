(** Fixed-capacity circular buffer.

    The CMB [log] comms module keeps a circular debug buffer of recent log
    messages to dump as context in response to a fault event. Storage is
    allocated as elements arrive, so an unused buffer costs nothing
    however large its capacity. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val push : 'a t -> 'a -> unit
(** [push b x] appends [x], dropping the oldest element when full. *)

val capacity : 'a t -> int

val to_list : 'a t -> 'a list
(** [to_list b] is the contents oldest-first. *)

val dropped : 'a t -> int
(** Number of elements overwritten so far. *)
