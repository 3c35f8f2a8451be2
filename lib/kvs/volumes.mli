(** Distributed KVS master — the paper's stated future-work direction
    ("we plan to address [KVS scalability] by distributing the KVS
    master itself").

    The key space is sharded across [shards] independent volumes, each a
    complete master-plus-caching-slaves store: volume [i]'s master sits
    at rank [i * size/shards], spreading the commit/apply work across
    the machine. Each volume aggregates fences and faults objects along
    its own tree, rooted at its current master, reached over the
    rank-addressed overlay (the session should be created with
    [~rank_topology:Direct]). Keys are routed to volumes by hashing
    their first path component, so a directory never straddles volumes
    and per-volume consistency matches the single-master store. Volume
    trees heal around dead brokers and fail over mastership in
    virtual-ring order, like the single-master store.

    Cross-volume fences are atomic via a two-phase epoch-merge: each
    volume's master freezes its proposed root for the named fence
    (phase 1, a [kvsx.prepare] event on the sequenced plane), and only
    once every volume has prepared do all of them adopt, answer
    participants, and publish their [setroot]s — recorded per rank as
    one {!Proto.composite} under a monotonically increasing cross-shard
    epoch (phase 2). Because the event plane is sequenced, every rank
    derives the identical composite and epoch. No client can observe
    volume A's post-fence state alongside volume B's pre-fence state:
    neither becomes visible until both are. With [shards = 1] none of
    this machinery is installed and behaviour is bit-for-bit the
    single-volume phenomenology. *)

module Json = Flux_json.Json

type t

val load :
  Flux_cmb.Session.t -> ?config:Kvs_module.config -> shards:int -> unit -> t
(** Raises [Invalid_argument] if [shards] is not positive or exceeds the
    session size. *)

val master_rank : t -> int -> int
(** Rank initially hosting volume [i]'s master (failover may move it;
    see {!Kvs_module.is_master} on the instances for the live view). *)

val volume_of_key : t -> string -> int
(** Deterministic shard choice from the key's first path component.
    Raises [Invalid_argument] on an illegal key (see {!volume_for_key}). *)

val volume_for_key : t -> string -> (int, string) result
(** Like {!volume_of_key} but returns the validation error instead of
    raising. A key is legal iff it is non-empty and no ['.']-separated
    path component is empty — such keys would otherwise silently
    collapse onto one shard or be unresolvable in the hash tree. *)

val instance : t -> volume:int -> rank:int -> Kvs_module.t
(** Introspection handle for one volume's instance at one rank. *)

val xfence_epoch : t -> rank:int -> int
(** Cross-shard fence epoch at [rank]: the number of cross-volume
    fences this rank has seen complete (all volumes prepared). Equal at
    every live rank after quiescence — the event plane sequences the
    prepares identically everywhere. *)

val last_composite : t -> rank:int -> Proto.composite option
(** The most recent merged setroot record [rank] derived: the frozen
    roots of all volumes under one cross-shard epoch. *)

(** {1 Client} *)

type client
(** Tracks one transaction per volume; blocking calls need a
    {!Flux_sim.Proc} body. *)

val client : t -> rank:int -> client

val put : client -> key:string -> Json.t -> (unit, string) result
val get : client -> key:string -> (Json.t, string) result

val commit : client -> (int, string) result
(** Commits every volume this client has dirty tuples in, concurrently;
    returns the highest resulting volume version. Every per-volume
    result is consumed: volumes that succeeded clear their pending
    state even when another volume failed (their errors are
    aggregated), so a retry after a partial failure cannot re-send
    already-applied tuples. *)

val fence : client -> name:string -> nprocs:int -> (unit, string) result
(** Collective commit across {e all} volumes (each participant fences
    every volume; the sub-fences run concurrently, and the volumes'
    adoption of their new roots is atomic — see the two-phase
    epoch-merge above). Per-volume RPCs are idempotent and fid-stamped:
    a retransmit racing a slow fence is applied exactly once, and a
    busy shed from one volume's admission control backs off and
    retries rather than aborting the whole cross-shard fence. *)
