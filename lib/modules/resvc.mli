(** The [resvc] comms module (Table I): resources are enumerated in the
    KVS and allocated when the scheduler runs an application.

    Each rank registers its local resources at load time; the root
    writes the inventory under [resrc.*] in the KVS and serves node
    allocation requests from the resulting free pool. The higher-level
    (hierarchical) scheduling built on top of this lives in
    [flux_core]. *)

type t

val load : Flux_cmb.Session.t -> unit -> t array
(** Every rank is a node of 16 cores and 32 GB (the Zin/Cab nodes of
    the paper). The inventory is committed to the KVS (requires the kvs
    module). *)

val alloc :
  Flux_cmb.Api.t -> jobid:string -> nnodes:int -> (int list, string) result
(** Allocate [nnodes] whole nodes to [jobid]; returns their ranks or an
    error when not enough nodes are free. Blocking. *)

val free : Flux_cmb.Api.t -> jobid:string -> (int, string) result
(** Release a job's nodes; returns how many were freed. *)

val free_nodes : Flux_cmb.Api.t -> (int, string) result
(** Number of currently unallocated nodes. *)
