(** Hexadecimal encoding of binary strings (SHA-1 digests etc.). *)

val encode : string -> string
(** [encode s] is the lowercase hex rendering of the bytes of [s]. *)

val decode : string -> string
(** [decode h] inverts {!encode}. Raises [Invalid_argument] on odd length
    or non-hex characters. *)
