(** KVS mastership as a pure transition function: the epoch-stamped
    split-brain guard, the lowest-live election, the takeover's peer
    round and the rejoin. {!Kvs_module} feeds each instance's inputs to
    {!step} and performs the effects in order; it keeps no mastership
    state of its own. Nothing here touches the session, the engine, the
    network or tracing, so test_election drives the same function over
    every sequence of up to five kills and revivals of 4 to 6 ranks,
    with the announcements and rounds in flight delivered none, all, or
    all but one rank's. After every step no two live ranks are master in
    one epoch, and no rank opens an epoch while the master of the newest
    one lives; once the messages drain, exactly one live rank is master
    and every live rank is thawed and agrees with it on epoch and master. *)

type phase =
  | Thawed
  | Taking_over  (** a peer round is out; requests are parked *)
  | Rejoining  (** revived; parked until a live master is announced *)

type state = {
  epoch : int;  (** mastership epoch; a takeover moves past all it heard *)
  master : int;  (** the believed master; [-1] after a revival *)
  is_master : bool;  (** this instance holds the authoritative store *)
  phase : phase;
}

type input =
  | Died of int  (** a rank was marked down *)
  | Revived  (** this rank was marked up *)
  | Adopted of { epoch : int; master : int }
      (** a [setroot] or a commit reply announced [(epoch, master)] *)
  | Hello of int  (** a [hello] from the given rank, which is rejoining *)
  | Round_ended of { epoch : int; master : int }
      (** this rank's peer round ended: the newest epoch heard, and a
          live peer that named itself master, or [-1] *)

type effect =
  | Ask_peers  (** start a peer round: [getroot] to every live peer *)
  | Adopt  (** take the announcement's version and root if newer *)
  | Publish_setroot  (** announce the current epoch, master, version and root *)
  | Publish_hello  (** ask the live master to announce itself *)
  | Promote  (** fold the object cache into the authoritative store *)
  | Demote  (** fail the collectives held as master; fold the store back *)
  | Forget  (** drop parked requests, the peer round, collectives and loads *)
  | Thaw  (** serve the parked requests *)

val init : self:int -> master:int -> state
(** Epoch 0 under the static [master], thawed. *)

val step :
  self:int -> order:int list -> live:(int -> bool) -> state -> input -> state * effect list
(** The next state of rank [self] and its effects. [order] is the
    election order and [live] the session's liveness. The first live
    rank of [order] succeeds a dead master, or a believed master heard
    rejoining; a rejoiner treats any death as a possible master death.
    An announcement from an older epoch changes nothing; one naming
    another rank deposes a master; one naming a live rank thaws a
    rejoiner, unless it names the rejoiner itself while it is not
    master (a replayed announcement of its own old epoch). A peer round follows a live peer that named itself master,
    and otherwise moves to a fresh epoch and promotes; a master, or a
    rank marked down before its round ended, ignores the round. *)

val settled : state -> epoch:int -> master:int -> bool
(** [settled s ~epoch ~master] holds when {!step} on
    [Adopted { epoch; master }] returns [s] itself with just [[Adopt]]:
    the common setroot, which the store then adopts without allocating. *)
