(** JSON wire encodings for the KVS protocol messages.

    Keeping these in one place pins down the exact bytes-on-the-wire the
    network model charges — tuple entries are ~55 B and object entries
    carry the full value, which is what makes fence aggregation behave
    as the paper reports (values reduce, tuples concatenate). *)

module Json = Flux_json.Json
module Sha1 = Flux_sha1.Sha1

type tuple = { key : string; sha : Sha1.digest }

type obj = { osha : Sha1.digest; value : Json.t }

type flush = {
  fence : (string * int) option;  (** fence name and nprocs, [None] = plain commit *)
  leaves : Flux_cmb.Tally.leaf list;
      (** the fence contributions this message covers, which the master
          counts once each *)
  fid : int;
      (** a plain flush's per-sender id: receivers suppress duplicates of
          ([origin], [fid]) so a retransmitted flush is applied exactly
          once; [-1] for none *)
  tuples : tuple list;
  objects : obj list;
}

val flush_to_json : flush -> Json.t
val flush_of_json : Json.t -> flush

val tuples_to_json : tuple list -> Json.t
val tuples_of_json : Json.t -> tuple list

val put_reply : Sha1.digest -> Json.t
(** [{"s": sha}] — a put returns the content address so the client can
    track its own transaction's (key, sha) tuples. *)

val put_reply_sha : Json.t -> Sha1.digest

type root_info = {
  ri_epoch : int;
      (** mastership epoch: bumped by every takeover, so announcements
          from a deposed master are recognizably stale *)
  ri_master : int;  (** the rank announcing itself as master for [ri_epoch] *)
  ri_version : int;
  ri_root : Sha1.digest;
}
(** The epoch-stamped authoritative root. Ordering is lexicographic on
    ([ri_epoch], [ri_version]); decoders default missing [epoch]/[master]
    fields to [0] for compatibility with pre-failover peers. *)

val setroot_to_json : root_info -> objects:obj list -> Json.t
(** The [setroot] event payload: the new root plus the interior tree
    objects this commit created, so slaves can replicate them eagerly
    (a later takeover then finds them in surviving caches). *)

val setroot_of_json : Json.t -> root_info * obj list

(** {1 Cross-shard fence (two-phase epoch-merge)} *)

type prepare = { px_name : string; px_vol : int; px_ri : root_info }
(** Phase-1 announcement: volume [px_vol]'s master has gathered every
    contribution of cross-shard fence [px_name] and frozen [px_ri] as
    its proposed root — adoption and publication wait for phase 2. *)

val prepare_to_json : prepare -> Json.t
val prepare_of_json : Json.t -> prepare

type composite = { cx_name : string; cx_epoch : int; cx_roots : root_info array }
(** Phase-2 merged setroot record: the frozen roots of all shards,
    published under one cross-shard fence epoch [cx_epoch] — the atomic
    cut a reader can use to name a consistent state across volumes. *)

val composite_to_json : composite -> Json.t
val composite_of_json : Json.t -> composite

val load_request : Sha1.digest -> Json.t
val load_request_sha : Json.t -> Sha1.digest
val load_reply : Json.t -> Json.t
val load_reply_value : Json.t -> Json.t

val commit_reply : root_info -> Json.t
val commit_reply_decode : Json.t -> root_info
