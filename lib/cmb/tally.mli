(** The tree collective's decisions at one broker, as a pure transition
    function over one collective name. {!Collective} feeds each input to
    {!step} and performs the effects in order; it keeps no decision of
    its own. Nothing here touches the session, the engine, the network
    or tracing. ['p] is a parked request and ['r] a reply, which this
    module only moves.

    {b State}, per name: below the root, the own enters, leaves and
    parked requests since the last forward, the children heard, the
    last arrival, whether a check is armed, the failed forwards and the
    forwards out; the name is open there while anything is pending or
    out. At the root it is counting (the leaf identities counted and
    their sum) or completed (with its reply once known).

    {b Inputs}: a contribution (this broker's clients' enters, or a
    child's forward), a check firing, a forward's reply, a parent change
    or becoming the root, the completion's reply, an abort and a
    demotion. {b Effects}: forward a batch, arm a check, complete, and
    answer parked requests.

    {b Exactly-once is decided once, at the root.} The contributions a
    broker aggregates from its own clients form a {!leaf} when it first
    forwards or counts them: the broker's rank, a stamp unique at that
    broker, and their count. A
    forward carries every leaf it covers, and a refold or a
    re-aggregation further up carries them unchanged, so a retransmit
    re-routed to another broker keeps its identity. The root counts
    each leaf once, and keeps a completed name with its reply to answer
    a late contribution instead of reopening the name. So a duplicate
    adds nothing, and both callers share one failure rule: a failed
    forward is refolded and retried.

    test_tally drives this [step] over every interleaving of the enters
    in trees of 5 to 7 brokers with up to three faults (an interior kill
    with its children re-parented, a revival, a lost reply whose sender
    retransmits along its current route). After every step the root has
    counted no participant twice and a name completes at most once; once
    drained, the name has completed and every parked request has been
    answered exactly once. The enumeration never kills the root and
    feeds no [Abort] or [Demote]: a deposed root dropping its side,
    forwards folded in when a broker becomes the root, and an abort
    racing a forward in flight are checked only by the KVS harnesses'
    fault schedules (chaos, shard, ckpt). *)

val window : float
(** Aggregation window, 200 us. A collective forwards when its count
    reaches [nprocs]; otherwise once every child has been heard and it
    has been quiet for half a window, or once it has been quiet for two
    windows. A contribution arms a check at half a window, and a check
    that does not forward re-arms at a quarter window. *)

type leaf = { origin : int; stamp : int; n : int }
(** [n] contributions that broker [origin] first aggregated from its own
    clients, under a [stamp] it never reuses. *)

module Ids : Set.S with type elt = int * int
(** Leaves by [(origin, stamp)]. *)

type 'p batch = { leaves : leaf list; parked : 'p list }
(** What one forward carries: its leaves and its requests, newest
    first. *)

type ('p, 'r) root =
  | Counting of { counted : Ids.t; count : int; parked : 'p list }
      (** accumulating: the leaves counted and the sum of their counts *)
  | Completed of { reply : 'r option; late : 'p list }
      (** completed; late contributions wait for the reply *)

type ('p, 'r) state = {
  nprocs : int;
  own : int;  (** this broker's clients' enters pending, one leaf once sent *)
  leaves : leaf list;  (** children's and refolded leaves pending *)
  parked : 'p list;  (** requests pending, newest first *)
  heard : int list;  (** children heard from *)
  last_arrival : float;
  armed : bool;  (** a check is scheduled *)
  failures : int;  (** forwards that came back failed *)
  inflight : (int * 'p batch) list;  (** forwards out, by tag *)
  root : ('p, 'r) root option;  (** at this broker's root *)
}

val init : int -> ('p, 'r) state
(** A name of [nprocs] contributions that holds nothing yet. *)

val open_below : ('p, 'r) state -> bool
(** Something is pending or out below the root. *)

val weight : leaf list -> int
(** The contributions the leaves cover. *)

type outcome =
  | Delivered  (** the forward's reply came back *)
  | Failed  (** it came back failed, and is retried *)
  | Aborted  (** it came back failed for good *)

type ('p, 'r) input =
  | Enter of { count : int; item : 'p }  (** [count] enters of this broker's clients *)
  | Aggregate of { leaves : leaf list; from_child : int; item : 'p }  (** a child's forward *)
  | Check  (** an armed check fires *)
  | Replied of { tag : int; outcome : outcome; reply : 'r }  (** forward [tag]'s reply *)
  | Rerouted  (** this broker's parent changed, or it became the root *)
  | Settled of 'r  (** the completion's reply is known *)
  | Abort of 'r  (** drop the name's pending and accumulating requests *)
  | Demote of 'r  (** drop the name's root side *)

type ('p, 'r) effect =
  | Forward of int * 'p batch  (** send the batch upstream under this tag *)
  | Arm of float  (** feed {!Check} after this delay *)
  | Complete of 'p list  (** the root counted [nprocs]: release these *)
  | Answer of 'p list * 'r  (** answer these with this reply *)

val step :
  self:int ->
  fresh:int ->
  now:float ->
  root:bool ->
  children:(unit -> int list) ->
  ('p, 'r) state ->
  ('p, 'r) input ->
  ('p, 'r) state * ('p, 'r) effect list
(** The next state of [self] and its effects. [fresh] is a number
    [self] has never passed before: a new leaf's stamp or a forward's
    tag. [root] tells whether [self] is the collective's root, and
    [children] is asked only when a check needs it.

    Below the root a contribution opens the name and arms a check; a
    check forwards what is pending by the window's rule, or folds it in
    if [self] has become the root. A delivered or aborted reply answers
    its batch. A failed one is refolded and re-checked after a backoff
    that doubles per failure, up to twelve failures at one broker, past
    which it is answered with its error: a collective that can never
    complete (a participant is gone and its abort missed this broker)
    stops retrying. A parent change refolds every forward out and sends
    it at once; a reply to a forward so superseded is ignored. At the
    root the name completes once its distinct leaves count [nprocs]. An
    abort answers what is pending and accumulating, and leaves a
    completed name alone; a demotion drops the root side, completed or
    not. *)
