(** Streaming statistics and percentile summaries for benchmark metrics. *)

type t
(** Accumulator of float samples. *)

val create : unit -> t

val add : t -> float -> unit
(** [add t x] records one sample. *)

val count : t -> int

val mean : t -> float
(** [mean t] is 0. when no samples were recorded. *)

val min : t -> float
(** Raises [Invalid_argument] when empty. *)

val max : t -> float
(** Raises [Invalid_argument] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,1\]] computes the p-th percentile by
    linear interpolation over the recorded samples. Raises when empty. *)
