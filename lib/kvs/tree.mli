(** Hash-tree directory structure for the content-addressed KVS.

    Following the paper (and ZFS/git): JSON objects live in a
    content-addressable store hashed by SHA-1; hierarchical key names
    ("a.b.c") are broken into path components referencing directory
    objects; a directory maps names to entries carrying the SHA-1 of a
    value object or of another directory. Any update produces a new
    root reference, so old and new snapshots coexist and the root switch
    is atomic. *)

module Json = Flux_json.Json
module Sha1 = Flux_sha1.Sha1

(** {1 Directory objects} *)

val empty_dir : Json.t
val empty_dir_sha : Sha1.digest
(** Every store starts from the same empty root directory. *)

val dirent_file : Sha1.digest -> Json.t
(** Entry referencing a value object: [{"f": sha}]. *)

val dirent_val : Json.t -> Json.t
(** Entry carrying a small value inline: [{"v": value}]. Small values
    live inside the directory object itself — which is why a consumer of
    one 8-byte object must fault in the whole directory containing it,
    the effect behind the paper's Figure 4(a). *)

val dirent_ref : Json.t -> [ `File of Sha1.digest | `Dir of Sha1.digest | `Val of Json.t ]
(** Decode an entry. Raises [Json.Type_error] on malformed entries. *)

val dir_entries : Json.t -> (string * Json.t) list
(** A directory object's [(name, entry)] pairs. Names are sorted
    ([String.compare]) and unique: {!empty_dir} and every directory
    {!apply_tuples} stores keep this invariant, and {!apply_tuples}
    relies on it when it merges updates into an existing directory. *)

(** {1 Key paths} *)

val valid_key : string -> bool
(** [valid_key k] holds when [k] is non-empty and none of its
    ['.']-separated components is empty: ["a.b"] is valid, [""],
    [".x"], ["x."] and ["a..b"] are not. One scan of [k]. *)

(** {1 Lookup} *)

type lookup_result =
  | Found of Json.t  (** the value object *)
  | No_key  (** the path does not exist in this snapshot *)
  | Need of Sha1.digest
      (** an object on the path is not available from [fetch]; fault it
          in and retry (lookups are idempotent against a pinned root) *)

val lookup :
  fetch:(Sha1.digest -> Json.t option) -> root:Sha1.digest -> key:string -> unit -> lookup_result
(** [lookup ~fetch ~root ~key ()] walks the path from the directory at
    [root], finding each component with {!Json.member_opt}: a large
    directory is searched through the name index it carries, built once
    per directory object and shared by every cache that holds the same
    physical value. Raises [Invalid_argument] on a key that is not
    {!valid_key}. *)

(** {1 Update (master side)} *)

exception Missing_dir of Sha1.digest
(** Raised by {!apply_tuples} when [fetch] lacks a directory object on a
    touched path. The payload is that object's digest: fetch it and
    apply again. Objects stored before the raise stay in the store, which
    content addressing makes harmless. *)

val apply_tuples :
  fetch:(Sha1.digest -> Json.t option) ->
  store:(Json.t -> Sha1.digest) ->
  root:Sha1.digest ->
  (string * Json.t) list ->
  Sha1.digest
(** [apply_tuples ~fetch ~store ~root tuples] applies [(key, dirent)]
    bindings (build entries with {!dirent_file} or {!dirent_val}) and
    returns the new root reference, creating intermediate directories as
    needed and storing every new directory object via [store]. Later
    tuples win on duplicate keys, and a value beats a directory created
    by a longer key in the same batch. A path component that currently
    names a value is replaced by a directory when the update descends
    through it. [fetch] must find every directory on the touched paths,
    or the apply raises {!Missing_dir}, and every directory it returns
    must have sorted, unique names (see {!dir_entries}).

    The rebuild is git-style structural sharing: only the directory
    spine touched by [tuples] is reconstructed and re-stored; every
    unchanged sibling subtree keeps its existing entry, so its SHA-1 is
    carried over from the previous commit rather than recomputed, and
    only the rebuilt directories are hashed. A directory is rebuilt in
    one pass: the batch's sorted updates are merged into its sorted
    entries, so the new object shares the old [(name, entry)] pairs,
    and the whole tail of them past the last updated name.

    [store] sees objects bottom-up: for each touched subdirectory, in an
    order fixed by the batch's keys, {!empty_dir} first when the
    subdirectory is new, then its own rebuild; the directory itself
    last. *)
