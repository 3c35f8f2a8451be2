(** Client-side KVS API, mirroring the paper's function classes:
    putting, committing, getting, and synchronizing.

    All blocking calls must run inside a {!Flux_sim.Proc} body; they
    talk to the kvs comms module on the local broker over the modeled
    UNIX-socket hop. *)

module Json = Flux_json.Json

type t

val connect : Flux_cmb.Session.t -> rank:int -> t
(** Client bound to the broker at [rank]. *)

val put : t -> key:string -> Json.t -> (unit, string) result
(** [put t ~key v] writes asynchronously in write-back mode: the value
    is hashed and cached locally, pending commit. *)

val get : t -> key:string -> (Json.t, string) result
(** [get t ~key] looks the key up from the current root snapshot,
    faulting missing objects in through the tree of slave caches. *)

val commit : t -> (int, string) result
(** Synchronously flush this node's dirty tuples and objects to the
    master; returns the new root version (read-your-writes: the local
    root is switched before returning). *)

val abort : t -> unit
(** Drop this handle's uncommitted tuples — after a failed commit or
    fence leaves the transaction in an indeterminate state, the caller
    can start the next one clean. *)

val fence : ?timeout:float -> t -> name:string -> nprocs:int -> (int, string) result
(** Collective commit: completes once [nprocs] processes have entered
    the fence named [name]; contributions aggregate up the tree. Fence
    names must be fresh (not reused by an earlier fence). By default a
    fence blocks forever; pass [timeout] to abandon one whose aggregated
    contributions were lost with a failed master (the transaction is
    then indeterminate — see {!abort}). An abandoned fence is aborted up
    the tree: the name's parked aggregation state is cleared at every
    hop (so the name may be retried fresh) and peers still blocked on it
    fail with a ["fence aborted"] error rather than hanging — if the
    fence had already completed, the abort is a no-op. *)

val get_version : t -> (int, string) result
(** Current root version at the local slave. *)

val get_root : t -> (Proto.root_info, string) result
(** The local broker's current (epoch, version, root) — the snapshot
    name a checkpoint manifest records. *)

val wait_version : t -> int -> (unit, string) result
(** Block until the local root version is at least the argument — the
    causal-consistency primitive. *)

val watch : t -> key:string -> (Json.t option -> unit) -> (unit, string) result
(** [watch t ~key f] calls [f] with the current value (or [None]), then
    again whenever the value changes — implemented as the paper
    describes, by re-getting the key on each root update and comparing.
    Watching a directory fires when anything beneath it changes. *)

val unwatch : t -> key:string -> unit
(** Stop firing callbacks registered for [key] by this client. *)
