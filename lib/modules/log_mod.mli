(** The [log] comms module (Table I): log messages are reduced and
    filtered before being placed in a log "file" at the session root; a
    circular debug buffer at every rank provides context in response to
    a fault event. *)

type level = Debug | Info | Warn | Error

type entry = {
  e_rank : int;  (** originating rank *)
  e_level : level;
  e_text : string;
  e_count : int;  (** duplicates folded by the reduction *)
}

type t

val load : Flux_cmb.Session.t -> unit -> t array
(** Messages below [Info] stay in the local circular buffer only, which
    keeps the last 128 messages; others are batched for 1 ms,
    duplicates folded, and forwarded to the root log. *)

val log : Flux_cmb.Api.t -> level:level -> string -> unit
(** Fire-and-forget log call for clients. *)

val root_log : t -> entry list
(** The accumulated session log (meaningful at rank 0), oldest first. *)

val dump_buffers : Flux_cmb.Api.t -> unit
(** Publish a fault event asking every rank to dump its debug buffer to
    the root log. *)

val level_to_string : level -> string
