(** Rank arithmetic for the CMB overlay topologies.

    The request-response plane is a k-ary tree rooted at rank 0; the
    rank-addressed plane is a ring. All functions are pure. *)

val parent : k:int -> int -> int option
(** [parent ~k rank] is the tree parent of [rank], or [None] for rank 0.
    Raises [Invalid_argument] if [k < 2] or [rank < 0]. *)

val children : k:int -> size:int -> int -> int list
(** [children ~k ~size rank] is the list of existing children of [rank]
    in a session of [size] ranks, in ascending order. *)

val depth : k:int -> int -> int
(** [depth ~k rank] is the number of hops from [rank] up to the root. *)

val tree_height : k:int -> size:int -> int
(** [tree_height ~k ~size] is the maximum depth over ranks [0..size-1]. *)

val on_path : k:int -> ancestor:int -> int -> bool
(** [on_path ~k ~ancestor rank] is true when [ancestor] lies on the path
    from [rank] to the root (inclusive of [rank] itself). *)

val ring_next : size:int -> int -> int
(** [ring_next ~size rank] is the successor on the ring overlay. *)
