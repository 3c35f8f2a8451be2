(** Matching jobspecs against the generalized resource model.

    The paper's Challenge 2: with a rich resource representation the
    scheduler can "allocate resources tailored to the disparate limiting
    factors of HPC applications" instead of treating the machine as a
    flat node list. This module selects concrete Node vertices from a
    {!Resource.t} tree that satisfy a jobspec's per-node core and memory
    demands, under a pluggable placement strategy. *)

type strategy =
  | First_fit  (** take qualifying nodes in tree (preorder) order *)
  | Best_fit
      (** prefer nodes whose memory most tightly fits the request,
          keeping large-memory nodes free for jobs that need them *)
  | Pack_by_rack
      (** gather nodes from as few racks as possible (locality) *)

type selection = {
  sel_nodes : Resource.t list;  (** the chosen Node vertices *)
  sel_racks : string list;  (** names of the racks touched, deduplicated *)
}

val node_memory_gb : Resource.t -> float
(** Memory quantity under a node. *)

val select : Resource.t -> spec:Jobspec.t -> strategy -> selection option
(** [select tree ~spec strategy] picks [spec.nnodes] qualifying nodes,
    or [None] when the tree cannot satisfy the request. *)

val explain_shortfall : Resource.t -> spec:Jobspec.t -> string
(** Human-readable reason a request does not fit (for error messages):
    distinguishes "not enough nodes" from "nodes lack cores/memory". *)
