(* Unit and property tests for Flux_util. *)

module Heap = Flux_util.Heap
module Rng = Flux_util.Rng
module Lru = Flux_util.Lru
module Stats = Flux_util.Stats
module Hexs = Flux_util.Hexs
module Ring_buffer = Flux_util.Ring_buffer
module Treemath = Flux_util.Treemath
module Idgen = Flux_util.Idgen

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* --- Heap ----------------------------------------------------------- *)

(* The minimum as a pair, then removed; [None] on an empty heap. *)
let pop h =
  if Heap.is_empty h then None
  else begin
    let min = (Heap.min_prio h, Heap.min_value h) in
    Heap.drop_min h;
    Some min
  end

let pop_value h =
  let v = Heap.min_value h in
  Heap.drop_min h;
  v

let test_heap_basic () =
  let h = Heap.create () in
  check bool "empty" true (Heap.is_empty h);
  Heap.push h 3.0 "c";
  Heap.push h 1.0 "a";
  Heap.push h 2.0 "b";
  check int "length" 3 (Heap.length h);
  check (Alcotest.pair (Alcotest.float 0.0) string) "min" (1.0, "a")
    (Heap.min_prio h, Heap.min_value h);
  let order = List.init 3 (fun _ -> pop_value h) in
  check (Alcotest.list string) "pop order" [ "a"; "b"; "c" ] order;
  check bool "empty again" true (Heap.is_empty h)

let test_heap_stability () =
  let h = Heap.create () in
  List.iteri (fun i name -> Heap.push h (float_of_int (i mod 2)) name)
    [ "a"; "b"; "c"; "d"; "e"; "f" ];
  (* prio 0: a c e (insertion order); prio 1: b d f *)
  let popped = List.init 6 (fun _ -> pop_value h) in
  check (Alcotest.list string) "stable ties" [ "a"; "c"; "e"; "b"; "d"; "f" ] popped

let test_heap_pop_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.check_raises "min_prio empty" (Invalid_argument "Heap.min_prio: empty heap")
    (fun () -> ignore (Heap.min_prio h : float));
  Alcotest.check_raises "min_value empty" (Invalid_argument "Heap.min_value: empty heap")
    (fun () -> ignore (Heap.min_value h : int));
  Alcotest.check_raises "drop_min empty" (Invalid_argument "Heap.drop_min: empty heap")
    (fun () -> Heap.drop_min h);
  (* Emptied by removal, the heap raises the same way. *)
  Heap.push h 1.0 1;
  Heap.drop_min h;
  Alcotest.check_raises "min_value emptied" (Invalid_argument "Heap.min_value: empty heap")
    (fun () -> ignore (Heap.min_value h : int))

let test_heap_clear () =
  let h = Heap.create () in
  for i = 0 to 99 do
    Heap.push h (float_of_int i) i
  done;
  Heap.clear h;
  check int "cleared" 0 (Heap.length h);
  Heap.push h 5.0 42;
  check (Alcotest.option (Alcotest.pair (Alcotest.float 0.0) int)) "usable after clear"
    (Some (5.0, 42)) (pop h)

(* Pushes a fresh block at [prio], reachable only from the heap and,
   weakly, from slot [i] of [w]. *)
let push_fresh h w i prio =
  let v = ref i in
  Weak.set w i (Some v);
  Heap.push h prio v

let test_heap_drop_releases () =
  let n = 100 in
  let h = Heap.create () and w = Weak.create n in
  for i = 0 to n - 1 do
    push_fresh h w i (float_of_int ((i * 37) mod n))
  done;
  for _ = 1 to n / 2 do
    Heap.drop_min h
  done;
  Gc.full_major ();
  let alive i = Weak.check w i in
  let dropped = List.filter (fun i -> (i * 37) mod n < n / 2) (List.init n Fun.id) in
  check int "dropped values collected" 0 (List.length (List.filter alive dropped));
  check int "queued values alive" (n / 2) (List.length (List.filter alive (List.init n Fun.id)));
  while not (Heap.is_empty h) do
    Heap.drop_min h
  done;
  Gc.full_major ();
  check int "drained values collected" 0 (List.length (List.filter alive (List.init n Fun.id)))

let test_heap_storage_follows_occupancy () =
  let drained pushes =
    let h = Heap.create () in
    for i = 1 to pushes do
      Heap.push h (float_of_int (i mod 97)) i
    done;
    while not (Heap.is_empty h) do
      Heap.drop_min h
    done;
    Obj.reachable_words (Obj.repr h)
  in
  check bool "drained after 10,000 pushes holds no more than after one" true
    (drained 10_000 <= drained 1)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun prios ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h p i) prios;
      let rec drain acc =
        match pop h with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      let out = drain [] in
      List.sort compare prios = out)

let prop_heap_grow =
  QCheck.Test.make ~name:"heap handles growth beyond initial capacity" ~count:20
    QCheck.(int_bound 500)
    (fun n ->
      let h = Heap.create () in
      for i = n downto 1 do
        Heap.push h (float_of_int i) i
      done;
      Heap.length h = n
      && (n = 0 || pop_value h = 1))

(* --- Rng ------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check bool "same stream" true (Rng.int64 a = Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check bool "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    check bool "int in range" true (x >= 0 && x < 10);
    let f = Rng.float r 3.0 in
    check bool "float in range" true (f >= 0.0 && f < 3.0)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_split_independent () =
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  let xs = List.init 10 (fun _ -> Rng.int64 parent) in
  let ys = List.init 10 (fun _ -> Rng.int64 child) in
  check bool "streams differ" true (xs <> ys)

let test_rng_exponential_positive () =
  let r = Rng.create 3 in
  for _ = 1 to 100 do
    check bool "exponential >= 0" true (Rng.exponential r 5.0 >= 0.0)
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create 11 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array int) "permutation" (Array.init 50 Fun.id) sorted

(* --- Lru -------------------------------------------------------------- *)

let test_lru_basic () =
  let c = Lru.create ~capacity:2 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  check (Alcotest.option int) "find a" (Some 1) (Lru.find c "a");
  Lru.put c "c" 3;
  (* "b" was least recently used (a was touched by find) *)
  check (Alcotest.option int) "b evicted" None (Lru.find c "b");
  check (Alcotest.option int) "a kept" (Some 1) (Lru.find c "a");
  check (Alcotest.option int) "c kept" (Some 3) (Lru.find c "c");
  check int "evictions" 1 (Lru.evictions c)

let test_lru_update_in_place () =
  let c = Lru.create ~capacity:2 in
  Lru.put c "a" 1;
  Lru.put c "a" 10;
  check int "no duplicate" 1 (Lru.length c);
  check (Alcotest.option int) "updated" (Some 10) (Lru.find c "a")

let test_lru_remove () =
  let c = Lru.create ~capacity:4 in
  Lru.put c "x" 1;
  Lru.remove c "x";
  check (Alcotest.option int) "removed" None (Lru.find c "x");
  Lru.remove c "x" (* idempotent *)

let test_lru_mem_no_touch () =
  let c = Lru.create ~capacity:2 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  check bool "mem a" true (Lru.mem c "a");
  Lru.put c "c" 3;
  (* mem must not refresh recency, so "a" is the eviction victim *)
  check bool "a evicted" false (Lru.mem c "a")

(* A slave cache hit moves the entry to the front. That relinking must
   not allocate: only the returned option may. *)
let test_lru_hit_allocation () =
  let c = Lru.create ~capacity:8 in
  let keys = [| "a"; "b"; "c" |] in
  Array.iter (fun k -> Lru.put c k k) keys;
  ignore (Lru.find c "c" : string option);
  let hits = 300 in
  let before = Gc.minor_words () in
  (* Cycling a, b, c: each key found is not at the head. *)
  for i = 0 to hits - 1 do
    ignore (Sys.opaque_identity (Lru.find c keys.(i mod 3)))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int hits in
  check bool (Printf.sprintf "%.2f words per hit, at most 2" words) true (words <= 2.0);
  check (Alcotest.option Alcotest.string) "order kept" (Some "b") (Lru.find c "b")

let prop_lru_capacity =
  QCheck.Test.make ~name:"lru never exceeds capacity" ~count:100
    QCheck.(pair (int_range 1 20) (small_list (string_of_size Gen.(return 3))))
    (fun (cap, keys) ->
      let c = Lru.create ~capacity:cap in
      List.iter (fun k -> Lru.put c k ()) keys;
      Lru.length c <= cap)

(* --- Stats ------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check int "count" 4 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-9) "median" 2.5 (Stats.median s);
  check (Alcotest.float 1e-6) "stddev" 1.2909944487358056 (Stats.stddev s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile s 0.0);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.percentile s 1.0);
  check (Alcotest.float 1e-6) "p50" 50.5 (Stats.percentile s 0.5)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 0.0) "mean empty" 0.0 (Stats.mean s);
  Alcotest.check_raises "min empty" (Invalid_argument "Stats.min: no samples") (fun () ->
      ignore (Stats.min s))

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.mean s >= Stats.min s -. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

(* --- Hexs -------------------------------------------------------------- *)

let test_hex_roundtrip () =
  let s = "\x00\x01\xfe\xff flux" in
  check string "roundtrip" s (Hexs.decode (Hexs.encode s));
  check string "encode" "00" (Hexs.encode "\x00")

let test_hex_invalid () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hexs.decode: odd length")
    (fun () -> ignore (Hexs.decode "abc"))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string (fun s ->
      Hexs.decode (Hexs.encode s) = s)

(* --- Ring_buffer -------------------------------------------------------- *)

let test_ring_basic () =
  let b = Ring_buffer.create ~capacity:3 in
  List.iter (Ring_buffer.push b) [ 1; 2; 3 ];
  check (Alcotest.list int) "full" [ 1; 2; 3 ] (Ring_buffer.to_list b);
  Ring_buffer.push b 4;
  check (Alcotest.list int) "wrapped" [ 2; 3; 4 ] (Ring_buffer.to_list b);
  check int "dropped" 1 (Ring_buffer.dropped b);
  Ring_buffer.clear b;
  check int "cleared" 0 (Ring_buffer.length b)

let test_ring_capacity_one () =
  let b = Ring_buffer.create ~capacity:1 in
  check int "capacity" 1 (Ring_buffer.capacity b);
  check (Alcotest.list int) "empty" [] (Ring_buffer.to_list b);
  Ring_buffer.push b 7;
  check (Alcotest.list int) "holds one" [ 7 ] (Ring_buffer.to_list b);
  Ring_buffer.push b 8;
  Ring_buffer.push b 9;
  check (Alcotest.list int) "keeps newest only" [ 9 ] (Ring_buffer.to_list b);
  check int "length pinned" 1 (Ring_buffer.length b);
  check int "dropped" 2 (Ring_buffer.dropped b)

let test_ring_multi_wrap () =
  (* Wrap the write cursor several full revolutions; to_list must stay
     oldest-first and dropped must count every overwritten element. *)
  let b = Ring_buffer.create ~capacity:4 in
  for i = 1 to 19 do
    Ring_buffer.push b i
  done;
  check (Alcotest.list int) "oldest-first after wraps" [ 16; 17; 18; 19 ]
    (Ring_buffer.to_list b);
  check int "length" 4 (Ring_buffer.length b);
  check int "dropped = pushed - capacity" 15 (Ring_buffer.dropped b)

let test_ring_invalid_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Ring_buffer.create: capacity must be positive") (fun () ->
      ignore (Ring_buffer.create ~capacity:0 : int Ring_buffer.t));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Ring_buffer.create: capacity must be positive") (fun () ->
      ignore (Ring_buffer.create ~capacity:(-3) : int Ring_buffer.t))

let test_ring_clear_then_reuse () =
  let b = Ring_buffer.create ~capacity:3 in
  List.iter (Ring_buffer.push b) [ 1; 2; 3; 4; 5 ];
  Ring_buffer.clear b;
  check (Alcotest.list int) "empty after clear" [] (Ring_buffer.to_list b);
  (* The buffer must be fully usable again, with oldest-first ordering
     across a fresh wrap after the clear. *)
  List.iter (Ring_buffer.push b) [ 10; 11; 12; 13 ];
  check (Alcotest.list int) "reused after clear" [ 11; 12; 13 ] (Ring_buffer.to_list b)

let prop_ring_dropped_counts =
  QCheck.Test.make ~name:"dropped = max 0 (pushed - capacity)" ~count:100
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (cap, xs) ->
      let b = Ring_buffer.create ~capacity:cap in
      List.iter (Ring_buffer.push b) xs;
      Ring_buffer.dropped b = max 0 (List.length xs - cap)
      && Ring_buffer.length b = min cap (List.length xs))

(* Capacities past 16 make the storage grow more than once before the
   buffer fills. *)
let prop_ring_keeps_latest =
  QCheck.Test.make ~name:"ring keeps the most recent k" ~count:100
    QCheck.(pair (int_range 1 80) (list_of_size Gen.(0 -- 200) small_int))
    (fun (cap, xs) ->
      let b = Ring_buffer.create ~capacity:cap in
      List.iter (Ring_buffer.push b) xs;
      let expect =
        let n = List.length xs in
        if n <= cap then xs else List.filteri (fun i _ -> i >= n - cap) xs
      in
      Ring_buffer.to_list b = expect)

(* --- Treemath ------------------------------------------------------------ *)

let test_tree_binary () =
  check (Alcotest.option int) "root parent" None (Treemath.parent ~k:2 0);
  check (Alcotest.option int) "parent 1" (Some 0) (Treemath.parent ~k:2 1);
  check (Alcotest.option int) "parent 2" (Some 0) (Treemath.parent ~k:2 2);
  check (Alcotest.option int) "parent 5" (Some 2) (Treemath.parent ~k:2 5);
  check (Alcotest.list int) "children 0" [ 1; 2 ] (Treemath.children ~k:2 ~size:6 0);
  check (Alcotest.list int) "children 2 truncated" [ 5 ]
    (Treemath.children ~k:2 ~size:6 2);
  check int "depth 0" 0 (Treemath.depth ~k:2 0);
  check int "depth 5" 2 (Treemath.depth ~k:2 5);
  check (Alcotest.list int) "ancestors 5" [ 2; 0 ] (Treemath.ancestors ~k:2 5)

let test_tree_kary () =
  check (Alcotest.list int) "children k=4" [ 1; 2; 3; 4 ]
    (Treemath.children ~k:4 ~size:100 0);
  check (Alcotest.option int) "parent k=4" (Some 0) (Treemath.parent ~k:4 4);
  check (Alcotest.option int) "parent k=4 of 5" (Some 1) (Treemath.parent ~k:4 5)

let test_tree_subtree () =
  check (Alcotest.list int) "subtree of 1 in 7-node binary tree" [ 1; 3; 4 ]
    (Treemath.subtree ~k:2 ~size:7 1);
  check (Alcotest.list int) "whole tree" [ 0; 1; 2; 3; 4; 5; 6 ]
    (Treemath.subtree ~k:2 ~size:7 0)

let test_tree_on_path () =
  check bool "0 on path of 5" true (Treemath.on_path ~k:2 ~ancestor:0 5);
  check bool "2 on path of 5" true (Treemath.on_path ~k:2 ~ancestor:2 5);
  check bool "1 not on path of 5" false (Treemath.on_path ~k:2 ~ancestor:1 5)

let test_ring_math () =
  check int "next" 0 (Treemath.ring_next ~size:4 3);
  check int "distance forward" 3 (Treemath.ring_distance ~size:4 3 2);
  check int "distance zero" 0 (Treemath.ring_distance ~size:4 1 1)

let prop_tree_parent_child =
  QCheck.Test.make ~name:"child lists are inverse of parent" ~count:100
    QCheck.(pair (int_range 2 5) (int_range 1 200))
    (fun (k, size) ->
      List.for_all
        (fun r ->
          List.for_all
            (fun c -> Treemath.parent ~k c = Some r)
            (Treemath.children ~k ~size r))
        (List.init size Fun.id))

let prop_tree_height_log =
  QCheck.Test.make ~name:"binary tree height is ~log2" ~count:50
    QCheck.(int_range 1 4096)
    (fun size ->
      let h = Treemath.tree_height ~k:2 ~size in
      let lg = int_of_float (Float.log2 (float_of_int size)) in
      h >= lg - 1 && h <= lg + 1)

(* --- Idgen ---------------------------------------------------------------- *)

let test_idgen () =
  let g = Idgen.create ~prefix:"job-" () in
  check string "first" "job-0" (Idgen.next g);
  check string "second" "job-1" (Idgen.next g);
  check int "counter" 2 (Idgen.current g)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "flux_util"
    [
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "stable ties" `Quick test_heap_stability;
          Alcotest.test_case "pop empty" `Quick test_heap_pop_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "dropped values released" `Quick test_heap_drop_releases;
          Alcotest.test_case "storage follows occupancy" `Quick
            test_heap_storage_follows_occupancy;
        ] );
      qsuite "heap-props" [ prop_heap_sorted; prop_heap_grow ];
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic eviction" `Quick test_lru_basic;
          Alcotest.test_case "update in place" `Quick test_lru_update_in_place;
          Alcotest.test_case "remove" `Quick test_lru_remove;
          Alcotest.test_case "mem does not touch" `Quick test_lru_mem_no_touch;
          Alcotest.test_case "hit allocates only the option" `Quick test_lru_hit_allocation;
        ] );
      qsuite "lru-props" [ prop_lru_capacity ];
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "empty" `Quick test_stats_empty;
        ] );
      qsuite "stats-props" [ prop_stats_mean_bounds ];
      ( "hex",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "invalid" `Quick test_hex_invalid;
        ] );
      qsuite "hex-props" [ prop_hex_roundtrip ];
      ( "ring_buffer",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "capacity one" `Quick test_ring_capacity_one;
          Alcotest.test_case "multiple wraps" `Quick test_ring_multi_wrap;
          Alcotest.test_case "invalid capacity" `Quick test_ring_invalid_capacity;
          Alcotest.test_case "clear then reuse" `Quick test_ring_clear_then_reuse;
        ] );
      qsuite "ring-props" [ prop_ring_keeps_latest; prop_ring_dropped_counts ];
      ( "treemath",
        [
          Alcotest.test_case "binary" `Quick test_tree_binary;
          Alcotest.test_case "k-ary" `Quick test_tree_kary;
          Alcotest.test_case "subtree" `Quick test_tree_subtree;
          Alcotest.test_case "on_path" `Quick test_tree_on_path;
          Alcotest.test_case "ring math" `Quick test_ring_math;
        ] );
      qsuite "treemath-props" [ prop_tree_parent_child; prop_tree_height_log ];
      ("idgen", [ Alcotest.test_case "sequence" `Quick test_idgen ]);
    ]
