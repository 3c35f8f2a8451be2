(** Generalized resource model (Section III of the paper).

    Resources form a tree covering an entire computing facility: a
    center contains clusters, clusters contain racks, racks contain
    nodes, nodes contain sockets/cores/memory — and non-compute
    resources such as power and shared file systems (with bandwidth)
    attach at any level. Each vertex carries a type and a quantity, so
    schedulers can reason about any kind of resource and its
    relationships rather than a flat node list. *)

type rtype =
  | Center
  | Cluster
  | Rack
  | Node
  | Socket
  | Core
  | Memory  (** quantity in GB *)
  | Power  (** quantity in watts *)
  | Filesystem
  | Bandwidth  (** quantity in GB/s *)
  | Custom of string

type t = {
  id : int;  (** unique within one resource tree *)
  name : string;
  rtype : rtype;
  quantity : float;  (** 1.0 for discrete resources, amount for consumables *)
  children : t list;
}

(** {1 Builders} *)

val cluster : ?power_watts:float -> nnodes:int -> name:string -> unit -> t
(** A cluster of [nnodes] nodes split into racks of 32, with a power
    envelope attached at cluster level. Each node has 2 sockets x 8
    cores and 32 GB, the Zin/Cab nodes of the paper. *)

val filesystem : ?bandwidth_gbs:float -> name:string -> unit -> t

val center : name:string -> t list -> t
(** The whole facility. [id]s are renumbered to be unique. *)

(** {1 Queries} *)

val count : rtype -> t -> int
(** Number of vertices of a type in the subtree. *)

val total_quantity : rtype -> t -> float
(** Sum of [quantity] over vertices of a type. *)

val pp : Format.formatter -> t -> unit
(** Indented tree rendering. *)
