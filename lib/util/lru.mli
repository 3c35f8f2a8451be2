(** LRU cache keyed by strings.

    Used by the KVS slave object caches: entries unused for a while are
    expired to bound memory, as in the paper's prototype. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] is an empty cache holding at most [capacity]
    entries; inserting beyond that evicts the least recently used one.
    Raises [Invalid_argument] if [capacity <= 0]. *)

val length : 'a t -> int

val mem : 'a t -> string -> bool
(** [mem c k] tests presence without touching recency. *)

val find : 'a t -> string -> 'a option
(** [find c k] returns the value and marks [k] most recently used. A hit
    allocates only the returned option: moving the entry to the front
    relinks it in place. *)

val put : 'a t -> string -> 'a -> unit
(** [put c k v] inserts or replaces, marking [k] most recently used and
    evicting the LRU entry if over capacity. *)

val remove : 'a t -> string -> unit

val set_on_evict : 'a t -> (string -> 'a -> unit) -> unit
(** [set_on_evict c f] registers [f] to run whenever an entry leaves the
    cache via capacity eviction or {!remove} — the hook byte-accounting
    callers need to keep their totals honest. Not fired by {!clear}
    (bulk invalidation resets accounting wholesale). *)

val evictions : 'a t -> int
(** [evictions c] counts entries evicted by capacity pressure so far. *)

val clear : 'a t -> unit
(** Empties the cache without firing the eviction hook. *)

val iter : (string -> 'a -> unit) -> 'a t -> unit
(** [iter f c] applies [f] to every binding, most recent first. *)
