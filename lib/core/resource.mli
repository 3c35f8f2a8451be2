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

val node : ?sockets:int -> ?cores_per_socket:int -> ?memory_gb:float -> name:string -> unit -> t
(** A compute node (default 2 sockets x 8 cores, 32 GB: the Zin/Cab
    nodes of the paper). *)

val rack : nodes:t list -> name:string -> unit -> t

val cluster : ?power_watts:float -> nnodes:int -> name:string -> unit -> t
(** A cluster of [nnodes] nodes split into racks of 32, with a power
    envelope attached at cluster level. *)

val filesystem : ?bandwidth_gbs:float -> name:string -> unit -> t

val center : name:string -> t list -> t
(** The whole facility. [id]s are renumbered to be unique. *)

(** {1 Queries} *)

val count : rtype -> t -> int
(** Number of vertices of a type in the subtree. *)

val total_quantity : rtype -> t -> float
(** Sum of [quantity] over vertices of a type. *)

val find_all : (t -> bool) -> t -> t list
(** Preorder matches. *)

val find_by_name : string -> t -> t option

val nodes_of : t -> t list
(** All Node vertices, preorder. *)

val depth : t -> int
(** Longest root-to-leaf path length. *)

val pp : Format.formatter -> t -> unit
(** Indented tree rendering. *)

(** {1 Serialization} — the resource inventory is published into the
    KVS under [resrc.*], as the resvc module does. *)

val to_json : t -> Flux_json.Json.t
val of_json : Flux_json.Json.t -> t
