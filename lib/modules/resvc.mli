(** The [resvc] comms module (Table I): resources are enumerated in the
    KVS and allocated when the scheduler runs an application.

    Each rank registers its local resources at load time; the root
    writes the inventory under [resrc.*] in the KVS and serves node
    allocation requests from the resulting free pool. The higher-level
    (hierarchical) scheduling built on top of this lives in
    [flux_core]. *)

type node_resources = { cores : int; memory_gb : int }

type t

val load :
  Flux_cmb.Session.t -> ?resources:(int -> node_resources) -> unit -> t array
(** [resources] maps a rank to its node description (default: 16 cores,
    32 GB — the Zin/Cab nodes of the paper). The inventory is committed
    to the KVS (requires the kvs module). *)

val alloc :
  Flux_cmb.Api.t -> jobid:string -> nnodes:int -> (int list, string) result
(** Allocate [nnodes] whole nodes to [jobid]; returns their ranks or an
    error when not enough nodes are free. Blocking. *)

val free : Flux_cmb.Api.t -> jobid:string -> (int, string) result
(** Release a job's nodes; returns how many were freed. *)

val free_nodes : Flux_cmb.Api.t -> (int, string) result
(** Number of currently unallocated nodes. *)
