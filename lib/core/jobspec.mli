(** Job resource request specifications.

    A jobspec asks for discrete resources (whole nodes) and consumable
    resources (power, shared-filesystem bandwidth), plus the walltime
    estimate that backfill scheduling relies on, and an elasticity class (Feitelson's rigid / moldable /
    malleable taxonomy referenced by the paper). *)

type elasticity =
  | Rigid  (** exactly [nnodes], fixed for the job's lifetime *)
  | Moldable of int * int
      (** (min, max): the scheduler picks the node count at start time *)
  | Malleable of int * int
      (** (min, max): the allocation may also grow/shrink while running *)

type t = {
  nnodes : int;  (** nodes requested (the target for moldable/malleable) *)
  walltime_est : float;  (** user estimate in seconds (backfill bound) *)
  power_per_node : float;  (** watts drawn per allocated node *)
  fs_bandwidth : float;  (** GB/s of shared filesystem while running *)
  elasticity : elasticity;
  user : string;  (** owner, for fair-share policies *)
  priority : int;  (** larger runs earlier under the priority policy *)
}

val make :
  ?walltime_est:float ->
  ?power_per_node:float ->
  ?fs_bandwidth:float ->
  ?elasticity:elasticity ->
  ?user:string ->
  ?priority:int ->
  nnodes:int ->
  unit ->
  t

val min_nodes : t -> int
(** Smallest node count this spec can start with. *)

val max_nodes : t -> int

val power_needed : t -> nnodes:int -> float

val validate : t -> (unit, string) result
