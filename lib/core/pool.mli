(** A resource pool: the discrete nodes and consumable budgets owned by
    one Flux instance.

    The parent-bounding rule is enforced here: a child instance's pool
    is carved out of its parent's ([donate_nodes]/[absorb_nodes]), and
    grants never exceed what the pool holds. *)

type grant = {
  g_nodes : int list;  (** center-session node ranks *)
  g_power : float;  (** watts held for the job's lifetime *)
  g_bandwidth : float;  (** GB/s of shared filesystem held *)
}

type t

val create :
  nodes:int list -> ?power_budget:float -> ?fs_bandwidth:float -> unit -> t
(** [power_budget]/[fs_bandwidth] default to infinity (unconstrained). *)

val total_nodes : t -> int
val free_nodes : t -> int
val free_node_list : t -> int list
val power_budget : t -> float
val power_in_use : t -> float
val bandwidth_in_use : t -> float

val try_grant : t -> spec:Jobspec.t -> nnodes:int -> grant option
(** [try_grant t ~spec ~nnodes] allocates [nnodes] nodes plus the
    spec's consumables, or [None] if any dimension is short. *)

val release : t -> grant -> unit
(** Raises [Invalid_argument] if the grant's nodes are not outstanding
    (double release). *)

val expand_grant : t -> grant -> spec:Jobspec.t -> extra:int -> grant option
(** Grow a running malleable job's grant by up to [extra] nodes (plus
    the spec's per-node power); [None] if not even one node (or the
    power for it) is available. *)

val shrink_grant : t -> grant -> spec:Jobspec.t -> release:int -> grant
(** Return [release] nodes (and their power) from a grant to the pool;
    clamped so at least one node remains. *)

val set_power_budget : t -> float -> unit
(** Lowering the budget below current use is allowed — no new grants
    fit until enough jobs finish (or malleable jobs shrink). *)

val donate_nodes : t -> int -> int list
(** Take up to [n] free nodes out of the pool entirely (to hand to a
    child instance). Returns the ranks actually removed. *)

val absorb_nodes : t -> int list -> unit
(** Return previously donated nodes (or add brand-new ones). *)

val remove_granted_nodes : t -> grant -> unit
(** Convert a grant into a donation: the granted nodes leave the pool's
    membership entirely (they now belong to a child instance); the
    grant's consumables stay accounted until {!release_consumables}. *)

val release_consumables : t -> grant -> unit
(** Return only the power/bandwidth of a grant (used when the nodes were
    removed via {!remove_granted_nodes} and come back via
    {!absorb_nodes}). *)
