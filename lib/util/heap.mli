(** Binary min-heap with stable ordering.

    Elements inserted with equal priority are popped in insertion order,
    which makes simulations built on the heap fully deterministic. The
    minimum is read with {!min_prio} and {!min_value} and removed with
    {!drop_min}, so no tuple or option is built to read it. Storage follows
    occupancy: a heap that drained after a peak holds no more than a
    fresh one, and a removed value is no longer reachable from the heap. *)

type 'a t
(** Mutable heap of elements of type ['a], prioritized by a float key. *)

val create : unit -> 'a t
(** [create ()] is a fresh empty heap. *)

val length : 'a t -> int
(** [length h] is the number of elements currently in [h]. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> float -> 'a -> unit
(** [push h prio x] inserts [x] with priority [prio]. Smaller priorities
    pop first; ties pop in insertion order. *)

val min_prio : 'a t -> float
(** [min_prio h] is the priority of the minimum element. Raises
    [Invalid_argument] on an empty heap. *)

val min_value : 'a t -> 'a
(** [min_value h] is the minimum element. Raises [Invalid_argument] on an
    empty heap. *)

val drop_min : 'a t -> unit
(** [drop_min h] removes the minimum element. Raises [Invalid_argument]
    on an empty heap. *)

val filter : 'a t -> ('a -> bool) -> unit
(** [filter h keep] removes every element for which [keep] is false, in
    O(n). Survivors keep their insertion rank, so their relative pop
    order — including ties — is exactly what it would have been. *)
