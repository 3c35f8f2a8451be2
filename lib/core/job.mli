(** The unified job model (Section III).

    A Flux job is not merely a resource allocation: its payload can be a
    program launched through wexec, a synthetic computation, or an
    entire nested Flux instance that recursively schedules its own
    workload — the recursion at the heart of the paper's hierarchy. *)

type state =
  | Pending
  | Allocated
  | Running
  | Complete
  | Failed of string
  | Cancelled

type payload =
  | Sleep of float
      (** synthetic computation of the given duration (scheduler studies) *)
  | App of { prog : string; args : Flux_json.Json.t; per_rank : int; duration : float }
      (** a registered wexec program, launched in bulk on the granted
          nodes; [duration] is passed to the program via args *)
  | Child of { policy : string; workload : submission list }
      (** a child Flux instance running its own scheduler over the
          granted nodes (sharing the center's comms session — the
          lightweight mode used for scheduler studies at scale) *)
  | Nested of { policy : string; workload : submission list }
      (** like [Child], but the instance also gets its own dedicated
          comms session (CMB + kvs + barrier + wexec) over its nodes,
          fully isolating its services from the parent's, as the paper's
          communication-infrastructure model prescribes *)

and submission = { sub_after : float; sub_spec : Jobspec.t; sub_payload : payload }
(** A job entering a queue [sub_after] seconds after its instance
    starts. *)

type t = {
  jid : string;
  spec : Jobspec.t;
  job_payload : payload;
  mutable jstate : state;
  mutable submit_time : float;
  mutable start_time : float;  (** NaN until started *)
  mutable end_time : float;  (** NaN until finished *)
  mutable granted_nodes : int list;
}

val create : jid:string -> spec:Jobspec.t -> payload:payload -> now:float -> t

val set_state : t -> now:float -> state -> unit
(** Applies the transition and records timestamps. Raises
    [Invalid_argument] on an illegal transition (e.g. Pending ->
    Complete). *)

val is_terminal : state -> bool

val wait_time : t -> float
(** start - submit; raises if not started. *)

val runtime : t -> float

val state_to_string : state -> string
