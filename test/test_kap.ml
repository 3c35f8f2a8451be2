(* Tests for the KAP tester: configuration handling, determinism, and —
   most importantly — the scaling shapes the paper reports (flat puts,
   value-dedup in fences, directory-layout effects on gets). *)

module Kap = Flux_kap.Kap

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let run_fp ?(vsize = 8) ?(kind = Kap.Unique) ?(layout = Kap.Single_dir) ?(ngets = 1)
    ?(sync = Kap.Fence) nodes =
  Kap.run
    {
      (Kap.fully_populated ~nodes) with
      Kap.value_size = vsize;
      value_kind = kind;
      dir_layout = layout;
      ngets;
      sync;
    }

let test_basic_run_completes () =
  let r = run_fp 4 in
  check int "objects produced" 64 r.Kap.r_total_objects;
  check bool "phases measured" true
    (r.Kap.r_setup.Kap.ph_max > 0.0
    && r.Kap.r_producer.Kap.ph_max > 0.0
    && r.Kap.r_sync.Kap.ph_max > 0.0
    && r.Kap.r_consumer.Kap.ph_max > 0.0);
  check bool "phase ordering sane" true
    (r.Kap.r_setup.Kap.ph_min >= 0.0 && r.Kap.r_wallclock > 0.0)

let test_determinism () =
  let a = run_fp 4 and b = run_fp 4 in
  check bool "identical latencies" true
    (a.Kap.r_producer = b.Kap.r_producer
    && a.Kap.r_sync = b.Kap.r_sync
    && a.Kap.r_consumer = b.Kap.r_consumer
    && a.Kap.r_rpc_messages = b.Kap.r_rpc_messages)

(* Figure 2: kvs_put scales well — max put latency is independent of the
   number of producers (write-back caching). *)
let test_put_flat_in_producers () =
  let small = run_fp 2 and large = run_fp 16 in
  let ratio = large.Kap.r_producer.Kap.ph_max /. small.Kap.r_producer.Kap.ph_max in
  check bool (Printf.sprintf "put flat (ratio %.2f)" ratio) true (ratio < 1.5)

let test_put_grows_with_value_size () =
  let small = run_fp ~vsize:8 4 and large = run_fp ~vsize:32768 4 in
  check bool "bigger values cost more to put" true
    (large.Kap.r_producer.Kap.ph_max > 2.0 *. small.Kap.r_producer.Kap.ph_max)

(* Figure 3: fence latency grows with producers; redundant values are
   reduced hop-by-hop so they beat unique values at large sizes. *)
let test_fence_grows_with_producers () =
  let small = run_fp 2 and large = run_fp 16 in
  check bool "fence grows" true
    (large.Kap.r_sync.Kap.ph_max > small.Kap.r_sync.Kap.ph_max)

let test_fence_redundant_beats_unique () =
  let uniq = run_fp ~vsize:8192 16 ~kind:Kap.Unique in
  let red = run_fp ~vsize:8192 16 ~kind:Kap.Redundant in
  check bool
    (Printf.sprintf "redundant fence faster (uniq %.2gms, red %.2gms)"
       (1e3 *. uniq.Kap.r_sync.Kap.ph_max)
       (1e3 *. red.Kap.r_sync.Kap.ph_max))
    true
    (red.Kap.r_sync.Kap.ph_max < 0.7 *. uniq.Kap.r_sync.Kap.ph_max);
  (* The reduction is visible on the wire: the tuples still concatenate
     but the values are deduplicated. *)
  check bool "root ingress shrinks" true
    (red.Kap.r_root_ingress_bytes < uniq.Kap.r_root_ingress_bytes / 2)

let test_fence_unique_ingress_linear () =
  (* Unique values concatenate all the way up: bytes into the root are
     at least producers x value size. *)
  let r = run_fp ~vsize:2048 8 in
  (* Producers hosted on rank 0 contribute locally, so the wire carries
     at least the other ranks' values. *)
  let remote = (8 - 1) * 16 in
  check bool "ingress >= remote producers x vsize" true
    (r.Kap.r_root_ingress_bytes >= remote * 2048)

(* Figure 4: consumer latency grows with consumer count when all objects
   share one directory (the whole directory faults in); splitting into
   <=128-object directories reduces the growth at scale. *)
let test_consumer_grows_with_scale () =
  let small = run_fp 4 and large = run_fp 64 in
  check bool
    (Printf.sprintf "consumer latency grows (%.2g -> %.2g)"
       small.Kap.r_consumer.Kap.ph_max large.Kap.r_consumer.Kap.ph_max)
    true
    (large.Kap.r_consumer.Kap.ph_max > 1.5 *. small.Kap.r_consumer.Kap.ph_max)

let test_multi_dir_helps_at_scale () =
  (* The extra directory level costs a little at small scale; past ~100
     nodes the bounded directory size wins (Figure 4b). *)
  let nodes = 128 in
  let single = run_fp ~layout:Kap.Single_dir nodes in
  let multi = run_fp ~layout:(Kap.Multi_dir 128) nodes in
  check bool
    (Printf.sprintf "multi-dir not slower at scale (1dir %.2g, dir128 %.2g)"
       single.Kap.r_consumer.Kap.ph_max multi.Kap.r_consumer.Kap.ph_max)
    true
    (multi.Kap.r_consumer.Kap.ph_max < 1.05 *. single.Kap.r_consumer.Kap.ph_max)

let test_fault_in_coalescing_per_node () =
  (* Single directory, access-1: each node needs the root dir and the
     kap dir only — loads stay around two per node, not per process. *)
  let r = run_fp 8 in
  check bool
    (Printf.sprintf "loads bounded by nodes (%d)" r.Kap.r_loads_issued)
    true
    (r.Kap.r_loads_issued <= 8 * 4)

let test_commit_wait_sync () =
  let r = run_fp ~sync:Kap.Commit_wait 4 in
  check int "objects" 64 r.Kap.r_total_objects;
  check bool "sync measured" true (r.Kap.r_sync.Kap.ph_max > 0.0)

let test_partial_roles () =
  (* 32 producers, 64 consumers out of 64 procs. *)
  let cfg = { (Kap.fully_populated ~nodes:4) with Kap.producers = 32 } in
  let r = Kap.run cfg in
  check int "objects" 32 r.Kap.r_total_objects

let test_invalid_configs () =
  Alcotest.check_raises "zero nodes"
    (Invalid_argument "Kap.run: need at least one node and one process") (fun () ->
      ignore (Kap.run { Kap.default with Kap.nodes = 0 }));
  Alcotest.check_raises "too many producers"
    (Invalid_argument "Kap.run: more roles than processes") (fun () ->
      ignore (Kap.run { Kap.default with Kap.producers = 1000 }));
  Alcotest.check_raises "consumers without producers"
    (Invalid_argument "Kap.run: consumers need producers") (fun () ->
      ignore (Kap.run { Kap.default with Kap.producers = 0 }));
  Alcotest.check_raises "one-byte redundant values"
    (Invalid_argument "Kap.run: values need at least 2 bytes") (fun () ->
      ignore (Kap.run { Kap.default with Kap.value_size = 1; value_kind = Kap.Redundant }))

let test_access_stride_and_counts () =
  let r = run_fp ~ngets:4 4 in
  check bool "more gets cost no less" true
    (r.Kap.r_consumer.Kap.ph_max >= (run_fp ~ngets:1 4).Kap.r_consumer.Kap.ph_max)

let () =
  Alcotest.run "flux_kap"
    [
      ( "mechanics",
        [
          Alcotest.test_case "run completes" `Quick test_basic_run_completes;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "partial roles" `Quick test_partial_roles;
          Alcotest.test_case "invalid configs" `Quick test_invalid_configs;
          Alcotest.test_case "commit+wait sync" `Quick test_commit_wait_sync;
        ] );
      ( "figure2-put",
        [
          Alcotest.test_case "flat in producers" `Quick test_put_flat_in_producers;
          Alcotest.test_case "grows with value size" `Quick test_put_grows_with_value_size;
        ] );
      ( "figure3-fence",
        [
          Alcotest.test_case "grows with producers" `Quick test_fence_grows_with_producers;
          Alcotest.test_case "redundant beats unique" `Quick test_fence_redundant_beats_unique;
          Alcotest.test_case "unique ingress linear" `Quick test_fence_unique_ingress_linear;
        ] );
      ( "figure4-get",
        [
          Alcotest.test_case "grows with scale" `Quick test_consumer_grows_with_scale;
          Alcotest.test_case "multi-dir competitive" `Quick test_multi_dir_helps_at_scale;
          Alcotest.test_case "coalesced fault-ins" `Quick test_fault_in_coalescing_per_node;
          Alcotest.test_case "access counts" `Quick test_access_stride_and_counts;
        ] );
    ]
