(** Every invariant harness, in the order [make check] runs them. The
    bench experiments, [make check] and CI iterate over this list. *)

val all : Harness.t list
val find : string -> Harness.t option
