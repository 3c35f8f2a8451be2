(* Model-checked property tests for the structures the engine's hot
   paths lean on: the stable heap (now with in-place filtering), the LRU
   cache with its eviction-hook byte accounting, and the tree-rank
   arithmetic. Each structure is driven with random operation sequences
   and compared against a transparent reference implementation. *)

module Heap = Flux_util.Heap
module Lru = Flux_util.Lru
module Treemath = Flux_util.Treemath

(* --- Heap vs stable-sort reference ----------------------------------- *)

(* Reference: the pop order of a stable heap is exactly the stable sort
   of the pushed elements by priority (ties broken by insertion order).
   Priorities are drawn from a tiny range so ties are common. *)

type heap_op = Push of float | Pop

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun p -> Push (float_of_int p)) (int_range 0 4)); (1, return Pop) ])

let heap_ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map (function Push p -> Printf.sprintf "push %g" p | Pop -> "pop") ops))
    QCheck.Gen.(list_size (int_range 0 200) heap_op_gen)

(* Reads the heap's minimum, then drops it. Most sequences of up to 200
   operations, three pushes to each pop, hold more than the heap's
   initial 16 slots, so the property crosses its grow steps and, while
   draining, its shrink steps. *)
let pop h =
  if Heap.is_empty h then None
  else begin
    let min = (Heap.min_prio h, Heap.min_value h) in
    Heap.drop_min h;
    Some min
  end

(* The reference holds (prio, seq) pairs; the minimum under lexicographic
   order is what a stable heap must pop. *)
let ref_pop entries =
  match List.sort compare entries with
  | [] -> (None, entries)
  | ((_, _, _) as e) :: _ -> (Some e, List.filter (fun x -> x <> e) entries)

let prop_heap_matches_stable_sort =
  QCheck.Test.make ~name:"heap pop order = stable sort under push/pop interleaving"
    ~count:500 heap_ops_arb (fun ops ->
      let h = Heap.create () in
      let seq = ref 0 in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (function
          | Push p ->
            Heap.push h p !seq;
            model := (p, !seq, !seq) :: !model;
            incr seq
          | Pop -> (
            let expected, rest = ref_pop !model in
            model := rest;
            match (pop h, expected) with
            | None, None -> ()
            | Some (p, v), Some (ep, _, ev) -> if not (p = ep && v = ev) then ok := false
            | Some _, None | None, Some _ -> ok := false))
        ops;
      (* Drain whatever is left; order must still match. *)
      let rec drain () =
        let expected, rest = ref_pop !model in
        model := rest;
        match (pop h, expected) with
        | None, None -> ()
        | Some (p, v), Some (ep, _, ev) ->
          if p = ep && v = ev then drain () else ok := false
        | Some _, None | None, Some _ -> ok := false
      in
      drain ();
      !ok)

let prop_heap_filter_preserves_order =
  QCheck.Test.make
    ~name:"heap filter keeps survivors' stable pop order" ~count:300
    QCheck.(list (pair (int_range 0 4) small_nat))
    (fun pushes ->
      let h = Heap.create () in
      List.iteri (fun i (p, v) -> Heap.push h (float_of_int p) (i, v)) pushes;
      let keep (_, v) = v mod 2 = 0 in
      Heap.filter h keep;
      let expected =
        (* stable sort of the kept entries by (prio, insertion index) *)
        List.mapi (fun i (p, v) -> (float_of_int p, i, v)) pushes
        |> List.filter (fun (_, _, v) -> v mod 2 = 0)
        |> List.sort compare
        |> List.map (fun (p, i, v) -> (p, (i, v)))
      in
      let rec drain acc =
        match pop h with None -> List.rev acc | Some e -> drain (e :: acc)
      in
      drain [] = expected)

(* --- Lru vs assoc-list reference -------------------------------------- *)

(* Reference model: an assoc list in most-recent-first order, plus the
   byte accounting the KVS slave caches layer on top of the eviction
   hook — bytes_held must always equal the sum over the live entries. *)

type lru_op = L_put of string * int | L_find of string | L_mem of string

let lru_key_gen = QCheck.Gen.(map (fun i -> Printf.sprintf "k%d" i) (int_range 0 9))

let lru_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> L_put (k, v)) lru_key_gen (int_range 1 100));
        (2, map (fun k -> L_find k) lru_key_gen);
        (1, map (fun k -> L_mem k) lru_key_gen);
      ])

let lru_ops_arb =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap=%d [%s]" cap
        (String.concat ";"
           (List.map
              (function
                | L_put (k, v) -> Printf.sprintf "put %s %d" k v
                | L_find k -> "find " ^ k
                | L_mem k -> "mem " ^ k)
              ops)))
    QCheck.Gen.(pair (int_range 1 6) (list_size (int_range 0 120) lru_op_gen))

let prop_lru_model =
  QCheck.Test.make ~name:"lru matches assoc-list model (incl. byte accounting)"
    ~count:500 lru_ops_arb (fun (cap, ops) ->
      let c = Lru.create ~capacity:cap in
      let bytes = ref 0 in
      let hooks = ref 0 in
      Lru.set_on_evict c (fun _k v ->
          incr hooks;
          bytes := !bytes - v);
      (* most-recent-first assoc list *)
      let model = ref [] in
      let model_bytes = ref 0 in
      let ok = ref true in
      let model_hooks = ref 0 in
      let model_put k v =
        (match List.assoc_opt k !model with
        | Some old ->
          model_bytes := !model_bytes - old;
          model := List.remove_assoc k !model
        | None -> ());
        model := (k, v) :: !model;
        model_bytes := !model_bytes + v;
        if List.length !model > cap then begin
          match List.rev !model with
          | (lk, lv) :: _ ->
            model := List.remove_assoc lk !model;
            model_bytes := !model_bytes - lv;
            incr model_hooks
          | [] -> ()
        end
      in
      List.iter
        (function
          | L_put (k, v) ->
            (* Mirror the KVS cache_put accounting: subtract the replaced
               value up front, add the new one; the eviction hook covers
               the capacity-eviction path. *)
            (match Lru.find c k with
            | Some old -> bytes := !bytes - old
            | None -> ());
            (match List.assoc_opt k !model with
            | Some _ ->
              (* the probe above refreshed recency in both worlds *)
              let v0 = List.assoc k !model in
              model := (k, v0) :: List.remove_assoc k !model
            | None -> ());
            Lru.put c k v;
            bytes := !bytes + v;
            model_put k v
          | L_find k -> (
            let got = Lru.find c k in
            let want = List.assoc_opt k !model in
            if got <> want then ok := false;
            match want with
            | Some v -> model := (k, v) :: List.remove_assoc k !model
            | None -> ())
          | L_mem k -> if Lru.mem c k <> List.mem_assoc k !model then ok := false)
        ops;
      (* Final-state agreement: contents, recency order, counters, bytes. *)
      let contents = ref [] in
      Lru.iter (fun k v -> contents := (k, v) :: !contents) c;
      let contents = List.rev !contents in
      !ok && contents = !model
      && Lru.length c = List.length !model
      && !hooks = !model_hooks
      && !bytes = !model_bytes
      && !model_bytes = List.fold_left (fun a (_, v) -> a + v) 0 !model)

(* --- Treemath round trips ---------------------------------------------- *)

let tree_arb =
  QCheck.make
    ~print:(fun (k, size) -> Printf.sprintf "k=%d size=%d" k size)
    QCheck.Gen.(pair (int_range 2 9) (int_range 1 400))

let prop_tree_children_of_parent =
  QCheck.Test.make ~name:"every rank appears in its parent's child list"
    ~count:200 tree_arb (fun (k, size) ->
      List.for_all
        (fun r ->
          match Treemath.parent ~k r with
          | None -> r = 0
          | Some p -> List.mem r (Treemath.children ~k ~size p))
        (List.init size Fun.id))

let prop_tree_parent_of_children =
  QCheck.Test.make ~name:"every child's parent points back" ~count:200 tree_arb
    (fun (k, size) ->
      List.for_all
        (fun r ->
          List.for_all
            (fun c -> c < size && c > r && Treemath.parent ~k c = Some r)
            (Treemath.children ~k ~size r))
        (List.init size Fun.id))

let prop_tree_partition =
  QCheck.Test.make ~name:"child lists partition ranks 1..size-1" ~count:100 tree_arb
    (fun (k, size) ->
      let seen = Array.make size 0 in
      List.iter
        (fun r ->
          List.iter (fun c -> seen.(c) <- seen.(c) + 1) (Treemath.children ~k ~size r))
        (List.init size Fun.id);
      seen.(0) = 0 && Array.for_all (fun n -> n = 1) (Array.sub seen 1 (size - 1)))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "flux_props"
    [
      qsuite "heap-model" [ prop_heap_matches_stable_sort; prop_heap_filter_preserves_order ];
      qsuite "lru-model" [ prop_lru_model ];
      qsuite "treemath-model"
        [ prop_tree_children_of_parent; prop_tree_parent_of_children; prop_tree_partition ];
    ]
