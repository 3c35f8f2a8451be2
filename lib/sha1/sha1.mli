(** Pure-OCaml SHA-1.

    The KVS content-addresses every object by the SHA-1 of its serialized
    form, exactly as the paper's prototype does. The 20-byte digests are
    carried around in hex. *)

type digest = private string
(** 40-character lowercase hex digest. *)

val digest_string : string -> digest
(** [digest_string s] is the SHA-1 of the bytes of [s], in hex. *)

val digest_json : Flux_json.Json.t -> digest
(** [digest_json v] hashes the compact serialization of [v], taking the
    printer's 64-byte chunks as they fill ({!Flux_json.Json.print}), so
    the serialization is never built as a string. Structurally equal
    values therefore hash identically, which is what gives the KVS its
    deduplication behaviour. Every call hashes afresh: the KVS digests
    only freshly built directories and newly put values, so a memo
    keyed by the value would never be hit. *)

val of_hex : string -> digest
(** Validates a 40-char hex string. Raises [Invalid_argument] otherwise. *)

val to_hex : digest -> string
(** Identity downcast. *)

val equal : digest -> digest -> bool

val short : digest -> string
(** First 8 hex characters, for log messages. *)
