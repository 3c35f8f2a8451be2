(** The epoch rollup: one value per rank per epoch, reduced up the
    current tree into one merged value that rank 0 finalizes. [mon]
    (Table I) merges a scalar's min, max, sum and count, the live
    telemetry plane metric-registry deltas; each gives only its merge,
    its JSON codec, its window and what rank 0 does with an epoch.

    At each broker, per epoch: a rank that is down contributes nothing;
    a child's partial ([<service>.reduce]) is merged once per child; the
    epoch is forwarded once every current child has been heard (a
    marked-down child has left the healed tree), or when its window
    runs out: [window] times the broker's levels above the leaves (the
    static height less its current depth, at least one), so a deeper
    broker gives up first and its partial still makes the next hop.
    Once forwarded, a contribution to that epoch or an earlier one is
    dropped as late: merging it would report its subtree twice.

    The overlay root's forward is the epoch's final value, which rank 0
    finalizes once. When the root has moved off rank 0 (see
    {!Session.mark_up}), it hands the epoch to rank 0 as
    [<service>.final] over the rank-0 hop, sent once, and rank 0
    finalizes it as received. While rank 0 is down nothing finalizes. *)

type 'p t

val create :
  Session.t ->
  service:string ->
  window:float ->
  merge:('p -> 'p -> 'p) ->
  to_fields:('p -> (string * Flux_json.Json.t) list) ->
  of_json:(Flux_json.Json.t -> 'p) ->
  ?on_send:(int -> int -> unit) ->
  ?on_late:(int -> unit) ->
  finalize:(int -> 'p -> unit) ->
  unit ->
  'p t
(** Load the [service] module on every rank. [merge] folds a later value
    into an earlier one; a forward's payload is [epoch] beside
    [to_fields], which [of_json] reads back. [finalize epoch v] runs at
    rank 0. [on_send rank bytes] runs as a rank forwards, with the
    payload's serialized size, and [on_late rank] as it drops a late
    contribution. *)

val contribute : 'p t -> rank:int -> epoch:int -> 'p -> unit
(** [rank]'s own value for [epoch]. *)
