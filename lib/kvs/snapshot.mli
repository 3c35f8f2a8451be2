(** Durable serialized snapshots of the content-addressed KVS.

    A snapshot is the object store reachable from one root hash (the
    paper's git-style design makes the root hash itself the snapshot
    name), serialized with enough redundancy that any damage —
    truncation, a flipped byte, a missing subtree — decodes to a
    structured {!error} rather than a crash or a silently-wrong store:
    every object re-hashes to its recorded id, the header carries the
    object count, and a trailing whole-store checksum covers the rest.

    Sharded stores additionally carry the cross-shard composite record
    (the per-volume roots of one atomic cut, see {!Volumes}). *)

module Json = Flux_json.Json
module Sha1 = Flux_sha1.Sha1

type error =
  | Malformed of string  (** framing/JSON damage: the store cannot be parsed *)
  | Truncated of { expected : int; got : int }
      (** fewer objects (or no trailer) than the header promised *)
  | Corrupt_object of { recorded : string; actual : string }
      (** an object no longer re-hashes to its recorded id *)
  | Checksum_mismatch of { recorded : string; actual : string }
      (** the whole-store trailer checksum disagrees with the bytes *)
  | Missing_root of string
      (** the root (or a composite member root) is not among the objects *)

val error_to_string : error -> string

type t = {
  s_service : string;  (** the KVS service this store belongs to, e.g. ["kvs"] *)
  s_root : Sha1.digest;
  s_version : int;
  s_epoch : int;
  s_composite : Proto.composite option;
      (** sharded stores: the per-volume roots of the atomic cut *)
  s_objects : (string * Json.t) list;
      (** (sha-hex, value) pairs in walk order, deduplicated *)
}

val objects_bytes : t -> int
(** Sum of the serialized sizes of every object payload. *)

val verify : t -> (unit, error) result
(** Re-hash every object against its recorded id and check that every
    root the snapshot names resolves. [decode] runs this; [restore]
    paths may re-run it on stores of unknown provenance. *)

val encode : t -> string
(** Serialize. [decode (encode t)] returns a snapshot equal to [t] up
    to object order (order is preserved). *)

val decode : string -> (t, error) result
(** Parse and fully verify a serialized store. Total: malformed input
    of any shape returns [Error], never raises. *)

val capture : Flux_cmb.Session.t -> rank:int -> (t, string) result
(** [capture sess ~rank] snapshots the ["kvs"] store through ordinary
    client RPCs from [rank]: one [getroot] pins an (epoch, version, root)
    triple, then idempotent [load]s walk every reachable object.
    Because objects are immutable and content-addressed the walk is
    consistent at the pinned root even if commits land — or the master
    fails over — while it runs. Only valid inside a
    {!Flux_sim.Proc} body. *)
