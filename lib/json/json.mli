(** Minimal JSON values for CMB message payloads and KVS objects.

    The paper's prototype stores JSON objects in the KVS and frames every
    CMB message with a JSON payload. This module provides the value type,
    a compact printer, a strict parser, and a structural size model used
    by the network simulator to charge wire time. *)

type index
(** An object's name index (see {!member_opt}). Only this module reads
    it. *)

type t = private
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of { items : t list; mutable size : int }
  | Obj of { fields : (string * t) list; mutable size : int; mutable index : index }
      (** Object fields are ordered; duplicate keys are not rejected but
          accessors return the first binding. *)
(** A value is immutable apart from each container's [size] and each
    object's [index]. [size] is the printed length once
    {!serialized_size} or {!print} has measured it, [-1] before; [index]
    is the object's name index once a lookup has built it. Only this
    module sets them, so the type is [private]: other code matches on
    values but builds them with the constructor functions below and the
    parser. Compare values with {!equal} and {!compare}, which ignore
    both; polymorphic [=], [compare] and [Hashtbl.hash] would see them. *)

val equal : t -> t -> bool
(** Structural equality. [Int 1] and [Float 1.0] are distinct. *)

val compare : t -> t -> int
(** Total order consistent with {!equal}. *)

(** {1 Constructors} *)

val null : t
val bool : bool -> t
val int : int -> t
val float : float -> t
val string : string -> t
val list : t list -> t
val obj : (string * t) list -> t
val strings : string list -> t

(** {1 Accessors}

    Accessors raise [Type_error] with a descriptive message when the
    value has the wrong shape. *)

exception Type_error of string

val to_bool : t -> bool
val to_int : t -> int
val to_float : t -> float
(** [to_float] accepts both [Float] and [Int]. *)

val to_string_v : t -> string
val to_list : t -> t list
val to_obj : t -> (string * t) list

val member : string -> t -> t
(** [member k v] is the field [k] of object [v]; raises [Type_error] when
    absent or [v] is not an object. *)

val member_opt : string -> t -> t option
(** [member_opt k v] is [v]'s first binding of [k], or [None] when [v]
    has none or is not an object. A lookup scans the fields in order.
    The first lookup that passes 64 fields without finding its name
    builds the object's name index, a table from each name to its first
    binding, and stores it in the object: every later lookup on that
    value, by any holder of it, is one table probe. A large directory
    shared by many caches is indexed once. {!member} and {!mem} share
    the rule. *)

val mem : string -> t -> bool

val set_member : string -> t -> t -> t
(** [set_member k x v] returns [v] with field [k] replaced or appended. *)

val remove_member : string -> t -> t

(** {1 Printing and parsing} *)

val print : chunk:Bytes.t -> (Bytes.t -> unit) -> t -> int
(** [print ~chunk full v] is the one printer: it writes the compact
    rendering of [v] into [chunk] and calls [full chunk] each time the
    chunk fills, then restarts at offset 0. It returns the printed length
    [n]; the last [n mod Bytes.length chunk] bytes are left at the start
    of [chunk], not handed to [full]. A consumer sees the rendering in
    fixed-size pieces and it is never built whole: [Sha1.digest_json]
    hashes 64-byte chunks as they fill. Like {!serialized_size}, it
    stores every container's length in the container, so a size query
    after printing is one field read. [full] must not keep [chunk].
    Raises [Invalid_argument] on an empty chunk. *)

val to_string : t -> string
(** Compact single-line rendering: {!print} into a [Buffer]. *)

val pp : Format.formatter -> t -> unit
(** Same compact rendering, as a [Format] printer. *)

exception Parse_error of string

val of_string : string -> t
(** Strict parser for the output of {!to_string} (standard JSON). Raises
    [Parse_error] on malformed input or trailing garbage. *)

val of_string_opt : string -> t option

(** {1 Size model} *)

val serialized_size : t -> int
(** [serialized_size v] is [String.length (to_string v)], computed
    without building the string. The simulator charges this many bytes
    of wire time for a payload. The first query on a container walks
    the containers below it that are not yet measured and stores each
    one's length in it, children first; every later query on that
    value is one field read. Payloads are structurally shared across
    message hops, caches and commits, so a forwarded payload or a
    directory inside a reply wrapper is measured once. *)

(** {1 Miscellany} *)

val pad : int -> t
(** [pad n] is an opaque string value whose serialized size is exactly
    [n] bytes (n >= 2); used by workload generators to emulate values of
    a prescribed size. Raises [Invalid_argument] if [n < 2]. *)

val pad_unique : int -> int -> t
(** [pad_unique n salt] is like [pad n] but distinct for distinct
    [salt] values (used for the KAP unique-value mode). Requires
    [n >= 12]. *)
