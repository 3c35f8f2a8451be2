(** Monotonic identifier generators. *)

type t

val create : ?prefix:string -> unit -> t
(** [create ~prefix ()] yields ids [prefix ^ string_of_int n] for
    successive [n] starting at 0. *)

val next : t -> string
(** Fresh string id. *)

val next_int : t -> int
(** Fresh integer id (shares the counter with {!next}). *)
