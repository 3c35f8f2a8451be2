(** FIFO channels between simulated processes — unbounded by default,
    with opt-in capacity limits and a pluggable full-queue policy for
    modeling overload at ingress points. *)

type overflow =
  | Block  (** Park the sender until space frees (backpressure). *)
  | Drop_newest  (** Reject the incoming message. *)
  | Drop_oldest  (** Evict from the head to make room (ring-buffer style). *)

type 'a t

val create :
  ?capacity:int -> ?max_bytes:int -> ?policy:overflow -> ?size_of:('a -> int) -> unit -> 'a t
(** [create ()] is the historical unbounded FIFO. [capacity] bounds the
    queued message count, [max_bytes] the queued byte total as measured
    by [size_of] (messages weigh 0 bytes when [size_of] is omitted, so
    only [capacity] applies); [policy] (default [Block]) decides what
    happens to a send that would exceed either bound. Raises
    [Invalid_argument] when a bound is < 1. *)

val send : Engine.t -> 'a t -> 'a -> unit
(** [send eng mb v] enqueues [v]; if a process is blocked in {!recv} it
    is resumed with [v] at the current instant. Callable from anywhere
    (process or plain event callback). When the mailbox is full: under
    [Drop_newest] the message is counted dropped and discarded, under
    [Drop_oldest] queued messages are evicted from the head to make
    room, and under [Block] the value is parked in send order and
    admitted as receives free space (the caller is never suspended). *)

val recv : 'a t -> 'a
(** Blocking receive; only valid inside a {!Proc} body. Multiple blocked
    receivers are served in FIFO order. *)

val try_recv : 'a t -> 'a option
(** Non-blocking receive. *)

val length : 'a t -> int
(** Messages currently queued (not counting blocked receivers). *)

val bytes : 'a t -> int
(** Queued bytes per [size_of] (0 when no sizer was given). *)

val blocked_senders : 'a t -> int
(** Values parked by the [Block] policy, waiting for space. *)

val hwm : 'a t -> int
(** High-water mark of {!length} over the mailbox's lifetime. *)

val hwm_bytes : 'a t -> int
(** High-water mark of {!bytes}. *)

val dropped : 'a t -> int
(** Messages discarded by [Drop_newest]/[Drop_oldest] overflow. *)
