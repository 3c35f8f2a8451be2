(** Hexadecimal encoding of binary strings (SHA-1 digests etc.). *)

val encode : string -> string
(** [encode s] is the lowercase hex rendering of the bytes of [s]. *)
