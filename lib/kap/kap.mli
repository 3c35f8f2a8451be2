(** KAP — KVS Access Patterns, the dedicated tester from the paper's
    evaluation (Section V).

    KAP stresses the KVS abstraction and the underlying CMB: a
    configurable number of producers write key-value objects, everyone
    synchronizes through a consistency protocol, and a configurable
    number of consumers read the objects back. Four phases — setup,
    producer, synchronization, consumer — are timed per process and the
    per-phase {e maximum} latency (the paper's critical-path metric) is
    reported. *)

type value_kind =
  | Unique  (** every producer writes distinct values *)
  | Redundant  (** all producers write the same value — reducible *)

type dir_layout =
  | Single_dir  (** all objects in one KVS directory (Figure 4a) *)
  | Multi_dir of int  (** at most this many objects per directory (128 in the paper) *)

type sync_kind =
  | Fence  (** everyone joins one [kvs_fence] *)
  | Commit_wait  (** producers commit individually; consumers [kvs_wait_version] *)

type config = {
  nodes : int;
  procs_per_node : int;
  producers : int;  (** first [producers] global ranks produce *)
  consumers : int;  (** first [consumers] global ranks consume *)
  nputs : int;  (** objects put by each producer *)
  ngets : int;  (** objects read by each consumer (the access count) *)
  value_size : int;  (** serialized bytes per value; at least 2, the size of [""] *)
  value_kind : value_kind;
  dir_layout : dir_layout;
  sync : sync_kind;
  access_stride : int;  (** consumer c reads objects [c*stride + k] mod total *)
  fanout : int;  (** CMB tree fan-out; the network and KVS use their default models *)
  trace : bool;  (** attach a tracer to the session and KVS instances *)
}

val default : config
(** 4 nodes x 16 procs, everyone produces and consumes one 8-byte
    object, fence sync, single directory, binary tree. *)

val fully_populated : nodes:int -> config
(** The paper's most revealing configuration: every core runs a process
    acting as both producer and consumer. *)

type phase_metrics = {
  ph_max : float;  (** max latency over participating processes *)
  ph_mean : float;
  ph_min : float;
}

type result = {
  r_config : config;
  r_setup : phase_metrics;
  r_producer : phase_metrics;
  r_sync : phase_metrics;
  r_consumer : phase_metrics;
  r_total_objects : int;
  r_root_ingress_bytes : int;  (** RPC-plane bytes into rank 0 *)
  r_rpc_messages : int;
  r_loads_issued : int;  (** fault-in requests across all slaves *)
  r_wallclock : float;  (** virtual seconds for the whole run *)
  r_events : int;  (** engine callbacks fired (a determinism fingerprint) *)
  r_trace : Flux_trace.Tracer.t option;  (** present when [trace] was set *)
  r_metrics : Flux_trace.Metrics.t option;
      (** the run's metrics registry (RPC latency, per-hop net, KVS
          cache/commit histograms); present when [trace] was set *)
}

val run : config -> result
(** Execute one KAP configuration on a fresh simulated cluster. Raises
    [Invalid_argument] on inconsistent configs (e.g. consumers but no
    producers, or values under 2 bytes). *)

val pp_result : Format.formatter -> result -> unit
(** One-line summary, bench-harness friendly. *)
