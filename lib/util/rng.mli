(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every stochastic choice in the simulator draws from an explicit [t]
    so that runs are reproducible from a seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] is a generator seeded from [seed]. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Raises [Invalid_argument] if
    [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from an exponential distribution with the
    given mean. *)
