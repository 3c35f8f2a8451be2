(* Tests for the distributed KVS: hash-tree mechanics, the consistency
   guarantees from the paper (read-your-writes, monotonic reads, causal),
   fence aggregation with value deduplication, and cache fault-in. *)

module Json = Flux_json.Json
module Sha1 = Flux_sha1.Sha1
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Ivar = Flux_sim.Ivar
module Session = Flux_cmb.Session
module Tree = Flux_kvs.Tree
module Proto = Flux_kvs.Proto
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let json_t = Alcotest.testable Json.pp Json.equal

(* --- Tree (pure hash-tree mechanics) ---------------------------------- *)

let memory_store () =
  let tbl : (string, Json.t) Hashtbl.t = Hashtbl.create 64 in
  let store v =
    let sha = Sha1.digest_json v in
    Hashtbl.replace tbl (Sha1.to_hex sha) v;
    sha
  in
  let fetch sha = Hashtbl.find_opt tbl (Sha1.to_hex sha) in
  ignore (store Tree.empty_dir : Sha1.digest);
  (tbl, store, fetch)

let lookup_value fetch root key =
  match Tree.lookup ~fetch ~root ~key () with
  | Tree.Found v -> Some v
  | Tree.No_key -> None
  | Tree.Need sha -> Alcotest.failf "unexpected missing object %s" (Sha1.short sha)

let test_tree_basic () =
  let _, store, fetch = memory_store () in
  let v42 = Json.int 42 in
  let sha42 = store v42 in
  let root = Tree.apply_tuples ~fetch ~store ~root:Tree.empty_dir_sha [ ("a.b.c", Tree.dirent_file sha42) ] in
  check (Alcotest.option json_t) "a.b.c = 42" (Some v42) (lookup_value fetch root "a.b.c");
  check (Alcotest.option json_t) "missing key" None (lookup_value fetch root "a.b.x");
  check (Alcotest.option json_t) "directory is not a value" None
    (lookup_value fetch root "a.b");
  check (Alcotest.option json_t) "path through value fails" None
    (lookup_value fetch root "a.b.c.d")

let test_tree_update_creates_new_root () =
  let _, store, fetch = memory_store () in
  let sha42 = store (Json.int 42) and sha43 = store (Json.int 43) in
  let root1 = Tree.apply_tuples ~fetch ~store ~root:Tree.empty_dir_sha [ ("a.b.c", Tree.dirent_file sha42) ] in
  let root2 = Tree.apply_tuples ~fetch ~store ~root:root1 [ ("a.b.c", Tree.dirent_file sha43) ] in
  check bool "new root reference" false (Sha1.equal root1 root2);
  (* Old snapshot still resolves: snapshots coexist. *)
  check (Alcotest.option json_t) "old snapshot" (Some (Json.int 42))
    (lookup_value fetch root1 "a.b.c");
  check (Alcotest.option json_t) "new snapshot" (Some (Json.int 43))
    (lookup_value fetch root2 "a.b.c")

let test_tree_siblings_unaffected () =
  let _, store, fetch = memory_store () in
  let s1 = store (Json.int 1) and s2 = store (Json.int 2) in
  let root = Tree.apply_tuples ~fetch ~store ~root:Tree.empty_dir_sha [ ("a.x", Tree.dirent_file s1); ("b.y", Tree.dirent_file s2) ] in
  let s3 = store (Json.int 3) in
  let root' = Tree.apply_tuples ~fetch ~store ~root [ ("a.x", Tree.dirent_file s3) ] in
  check (Alcotest.option json_t) "sibling preserved" (Some (Json.int 2))
    (lookup_value fetch root' "b.y");
  check (Alcotest.option json_t) "updated" (Some (Json.int 3)) (lookup_value fetch root' "a.x")

let test_tree_content_addressing_stable () =
  (* Two stores applying the same logical updates in different tuple
     order arrive at the same root hash (directories are normalized). *)
  let _, store1, fetch1 = memory_store () in
  let _, store2, fetch2 = memory_store () in
  let r1 =
    Tree.apply_tuples ~fetch:fetch1 ~store:store1 ~root:Tree.empty_dir_sha
      [ ("d.a", Tree.dirent_file (store1 (Json.int 1))); ("d.b", Tree.dirent_file (store1 (Json.int 2))) ]
  in
  let r2 =
    Tree.apply_tuples ~fetch:fetch2 ~store:store2 ~root:Tree.empty_dir_sha
      [ ("d.b", Tree.dirent_file (store2 (Json.int 2))); ("d.a", Tree.dirent_file (store2 (Json.int 1))) ]
  in
  check bool "order-independent root" true (Sha1.equal r1 r2)

let test_tree_later_tuple_wins () =
  let _, store, fetch = memory_store () in
  let s1 = store (Json.int 1) and s2 = store (Json.int 2) in
  let root =
    Tree.apply_tuples ~fetch ~store ~root:Tree.empty_dir_sha [ ("k", Tree.dirent_file s1); ("k", Tree.dirent_file s2) ]
  in
  check (Alcotest.option json_t) "later wins" (Some (Json.int 2)) (lookup_value fetch root "k")

let test_tree_value_overwritten_by_dir () =
  let _, store, fetch = memory_store () in
  let s1 = store (Json.int 1) and s2 = store (Json.int 2) in
  let root = Tree.apply_tuples ~fetch ~store ~root:Tree.empty_dir_sha [ ("a", Tree.dirent_file s1) ] in
  let root' = Tree.apply_tuples ~fetch ~store ~root [ ("a.b", Tree.dirent_file s2) ] in
  check (Alcotest.option json_t) "descended" (Some (Json.int 2)) (lookup_value fetch root' "a.b");
  check (Alcotest.option json_t) "old value gone" None (lookup_value fetch root' "a")

let test_split_key_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Tree.split_key: invalid key \"\"")
    (fun () -> ignore (Tree.split_key ""));
  Alcotest.check_raises "double dot" (Invalid_argument "Tree.split_key: invalid key \"a..b\"")
    (fun () -> ignore (Tree.split_key "a..b"))

let test_lookup_reports_missing () =
  let _, store, fetch = memory_store () in
  let sv = store (Json.int 9) in
  let root = Tree.apply_tuples ~fetch ~store ~root:Tree.empty_dir_sha [ ("a.b", Tree.dirent_file sv) ] in
  (* A fetch that pretends the value object is missing. *)
  let fetch' sha = if Sha1.equal sha sv then None else fetch sha in
  (match Tree.lookup ~fetch:fetch' ~root ~key:"a.b" () with
  | Tree.Need sha -> check bool "names the missing object" true (Sha1.equal sha sv)
  | _ -> Alcotest.fail "expected Need");
  (* An apply through a directory the store lacks names that directory. *)
  let dir_a =
    match Tree.dirent_ref (List.assoc "a" (Tree.dir_entries (Option.get (fetch root)))) with
    | `Dir d -> d
    | `File _ | `Val _ -> Alcotest.fail "a is a directory"
  in
  let fetch'' sha = if Sha1.equal sha dir_a then None else fetch sha in
  Alcotest.check_raises "apply names the missing directory" (Tree.Missing_dir dir_a) (fun () ->
      ignore (Tree.apply_tuples ~fetch:fetch'' ~store ~root [ ("a.c", Tree.dirent_file sv) ] : Sha1.digest))

(* Up to 200 names spread over 1-4 directories, so some directories
   grow past 64 entries and lookups there build [Json]'s per-object name
   index. Two batches: the second rebuilds the directories the first
   created, and both snapshots must still answer every name, present or
   absent. *)
let prop_tree_many_keys =
  let names = 200 in
  QCheck.Test.make ~name:"bulk apply then lookup" ~count:30
    QCheck.(
      triple (int_range 1 4)
        (list_of_size Gen.(1 -- 400) (pair (int_range 0 (names - 1)) (int_range 0 1000)))
        (list_of_size Gen.(0 -- 100) (pair (int_range 0 (names - 1)) (int_range 0 1000))))
    (fun (ndirs, first, second) ->
      let _, store, fetch = memory_store () in
      let key k = Printf.sprintf "dir%d.key%d" (k mod ndirs) k in
      let apply root pairs =
        Tree.apply_tuples ~fetch ~store ~root
          (List.map (fun (k, v) -> (key k, Tree.dirent_file (store (Json.int v)))) pairs)
      in
      (* Later tuples win. *)
      let bind expected pairs = List.iter (fun (k, v) -> Hashtbl.replace expected k v) pairs in
      let agrees root expected =
        List.for_all
          (fun k ->
            lookup_value fetch root (key k) = Option.map Json.int (Hashtbl.find_opt expected k))
          (List.init names Fun.id)
      in
      let expected1 = Hashtbl.create names in
      bind expected1 first;
      let root1 = apply Tree.empty_dir_sha first in
      let ok1 = agrees root1 expected1 in
      let expected2 = Hashtbl.copy expected1 in
      bind expected2 second;
      let root2 = apply root1 second in
      ok1 && agrees root2 expected2 && agrees root1 expected1)

(* --- Rebuild by merging: equivalence with the table-and-sort rebuild ----- *)

(* The rebuild as it was before directories were merged: every entry of
   the old directory re-inserted into a table, then all of them sorted.
   Kept as the reference that the merge must match object for object. *)
module Reference = struct
  type trie = { mutable leaves : (string * Json.t) list; subs : (string, trie) Hashtbl.t }

  let trie_create () = { leaves = []; subs = Hashtbl.create 8 }

  let rec trie_add t comps dirent =
    match comps with
    | [] -> invalid_arg "empty path"
    | [ name ] -> t.leaves <- (name, dirent) :: t.leaves
    | name :: rest ->
      let sub =
        match Hashtbl.find_opt t.subs name with
        | Some s -> s
        | None ->
          let s = trie_create () in
          Hashtbl.replace t.subs name s;
          s
      in
      trie_add sub rest dirent

  let apply_tuples ~fetch ~store ~root tuples =
    let trie = trie_create () in
    List.iter (fun (key, dirent) -> trie_add trie (Tree.split_key key) dirent) tuples;
    let rec rebuild dir_sha trie =
      let dir = Option.get (fetch dir_sha) in
      let entries = Hashtbl.create 32 in
      List.iter (fun (k, v) -> Hashtbl.replace entries k v) (Tree.dir_entries dir);
      Hashtbl.iter
        (fun name sub ->
          let sub_sha =
            match Hashtbl.find_opt entries name with
            | Some entry -> (
              match Tree.dirent_ref entry with
              | `Dir dsha -> dsha
              | `File _ | `Val _ -> Tree.empty_dir_sha)
            | None -> Tree.empty_dir_sha
          in
          if Sha1.equal sub_sha Tree.empty_dir_sha then ignore (store Tree.empty_dir : Sha1.digest);
          Hashtbl.replace entries name (Tree.dirent_dir (rebuild sub_sha sub)))
        trie.subs;
      List.iter (fun (name, dirent) -> Hashtbl.replace entries name dirent) (List.rev trie.leaves);
      let sorted =
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) entries [])
      in
      store (Json.obj sorted)
    in
    rebuild root trie
end

(* A memory store that also records every value passed to [store], in
   order. *)
let recording_store () =
  let _, store, fetch = memory_store () in
  let stored = ref [] in
  let store v =
    stored := v :: !stored;
    store v
  in
  (store, fetch, fun () -> List.rev !stored)

let rec strictly_increasing = function
  | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b < 0 && strictly_increasing rest
  | _ -> true

(* Three to five successive batches. Each mixes random keys from a small
   nested pool ("a", "a.b", "b.c.a", ...: duplicates, and a name and a
   path through it, in either order), a slice of fresh names that grows
   one directory from nothing to about 700 entries (unpadded numbers,
   so new names land between old ones), and fixed cases: a duplicate key,
   a value and a directory through it in both orders, a value left by
   the previous batch overwritten by a directory and a directory left by
   it overwritten by a value. *)
let gen_batches =
  let open QCheck.Gen in
  let comp = oneofl [ "a"; "b"; "c" ] in
  let pool_key = map (String.concat ".") (list_size (1 -- 3) comp) in
  let dirent i =
    oneofl
      [
        Tree.dirent_val (Json.int i);
        Tree.dirent_val (Json.string (Printf.sprintf "s%d" i));
        Tree.dirent_file (Sha1.digest_json (Json.int i));
      ]
  in
  let batch nbatches k =
    let per = 700 / nbatches in
    let* random = list_size (0 -- 40) (pair pool_key (int_range 0 9)) in
    let* regrow = list_size (0 -- 20) (int_range 0 (per * (k + 1))) in
    let fresh = List.init per (fun i -> (Printf.sprintf "big.n%d" ((k * per) + i), i)) in
    let forced =
      [
        ("dup", 1);
        ("dup", 2);
        (Printf.sprintf "v%d" k, 3);
        (Printf.sprintf "v%d.t" k, 4);
        (Printf.sprintf "d%d.t" k, 5);
        (Printf.sprintf "d%d" k, 6);
      ]
      @
      if k = 0 then []
      else [ (Printf.sprintf "leaf%d.t" (k - 1), 7); (Printf.sprintf "dir%d" (k - 1), 8) ]
    in
    let left_behind = [ (Printf.sprintf "leaf%d" k, 9); (Printf.sprintf "dir%d.x" k, 10) ] in
    let* order = shuffle_l (random @ fresh @ List.map (fun i -> (Printf.sprintf "big.n%d" i, i)) regrow) in
    flatten_l (List.map (fun (key, i) -> map (fun d -> (key, d)) (dirent i)) (order @ left_behind @ forced))
  in
  let* nbatches = int_range 3 5 in
  flatten_l (List.init nbatches (batch nbatches))

let prop_merge_matches_reference =
  QCheck.Test.make ~name:"merged rebuild matches the table-and-sort rebuild" ~count:20
    (QCheck.make gen_batches) (fun batches ->
      let store, fetch, stored = recording_store () in
      let ref_store, ref_fetch, ref_stored = recording_store () in
      let _ =
        List.fold_left
          (fun (root, ref_root) tuples ->
            let root = Tree.apply_tuples ~fetch ~store ~root tuples in
            let ref_root =
              Reference.apply_tuples ~fetch:ref_fetch ~store:ref_store ~root:ref_root tuples
            in
            if not (Sha1.equal root ref_root) then QCheck.Test.fail_report "root digests differ";
            (root, ref_root))
          (Tree.empty_dir_sha, Tree.empty_dir_sha) batches
      in
      let got = stored () and expected = ref_stored () in
      if not (List.equal Json.equal got expected) then
        QCheck.Test.fail_reportf "store saw %d values, the reference %d, or in another order"
          (List.length got) (List.length expected);
      if not (List.for_all (fun d -> strictly_increasing (Tree.dir_entries d)) got) then
        QCheck.Test.fail_report "a stored directory's names are not strictly increasing";
      List.exists (fun d -> Tree.dir_size d >= 690) got)

(* Allocation counts repeat exactly from run to run: one key into a
   600-entry directory reuses the old entries and hashes the new object
   as it prints. *)
let test_apply_allocation () =
  let _, store, fetch = memory_store () in
  let root =
    Tree.apply_tuples ~fetch ~store ~root:Tree.empty_dir_sha
      (List.init 600 (fun i -> (Printf.sprintf "dir.task%d" i, Tree.dirent_val (Json.int i))))
  in
  let tuples = [ ("dir.task300x", Tree.dirent_val (Json.int 1)) ] in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Tree.apply_tuples ~fetch ~store ~root tuples));
  let words = Gc.minor_words () -. before in
  if words >= 15_000. then
    Alcotest.failf "one key into a 600-entry directory allocated %.0f words (limit 15,000)" words

(* Nothing else pins a directory's bytes: a printer that emitted the
   right number of wrong bytes would keep every size, event count and
   clock the same. The expected root was computed by the table-and-sort
   rebuild hashing printed strings, independently of the merge and the
   streamed hash under test. *)
let test_pinned_root () =
  let _, store, fetch = memory_store () in
  let file i = Tree.dirent_file (Sha1.digest_json (Json.int i)) in
  let commits =
    [
      [ ("a.b.c", Tree.dirent_val (Json.int 1)); ("a.x", Tree.dirent_val (Json.string "s")) ];
      List.init 100 (fun i -> (Printf.sprintf "big.k%d" i, file i));
      [
        ("esc.quote\"d", Tree.dirent_val (Json.string "q\"uote"));
        ("esc.back\\slash", file 1);
        ("esc.tab\tand\nline", Tree.dirent_val (Json.list [ Json.null; Json.float 0.5 ]));
        ("esc.ctl\001\031", Tree.dirent_val (Json.string "\000\127\255"));
        ("esc.utf8\xc3\xa9", Tree.dirent_val (Json.bool true));
        ("a.b", Tree.dirent_val (Json.int 2));
      ];
      [ ("big.k50", Tree.dirent_val (Json.int (-50))); ("a.b.c", file 3); ("big.k100", file 100) ];
    ]
  in
  let root =
    List.fold_left (fun root tuples -> Tree.apply_tuples ~fetch ~store ~root tuples) Tree.empty_dir_sha commits
  in
  check string "root after four commits" "a7663d4ecd8aecf37b1833f148ac2a1ae98506ca" (Sha1.to_hex root)

(* --- Distributed KVS harness ------------------------------------------ *)

type world = {
  eng : Engine.t;
  sess : Session.t;
  kvs : Kvs.t array;
}

let make_world ?(size = 15) () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size () in
  let kvs = Kvs.load sess () in
  { eng; sess; kvs }

let run_clients w bodies =
  (* Spawn one process per body; run to completion; fail if any is stuck. *)
  let remaining = ref (List.length bodies) in
  List.iter
    (fun body ->
      ignore
        (Proc.spawn w.eng (fun () ->
             body ();
             decr remaining)))
    bodies;
  Engine.run w.eng;
  if !remaining <> 0 then
    Alcotest.failf "%d client processes did not complete" !remaining

let expect_ok label = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" label e

let test_kvs_single_node () =
  let w = make_world ~size:1 () in
  run_clients w
    [
      (fun () ->
        let c = Client.connect w.sess ~rank:0 in
        expect_ok "put" (Client.put c ~key:"a.b.c" (Json.int 42));
        let v = expect_ok "commit" (Client.commit c) in
        check int "version 1" 1 v;
        check json_t "get" (Json.int 42) (expect_ok "get" (Client.get c ~key:"a.b.c")));
    ]

let test_kvs_read_your_writes () =
  let w = make_world () in
  run_clients w
    [
      (fun () ->
        let c = Client.connect w.sess ~rank:13 in
        expect_ok "put" (Client.put c ~key:"ryw" (Json.string "mine"));
        ignore (expect_ok "commit" (Client.commit c) : int);
        (* Immediately after commit, this process must see its write. *)
        check json_t "read own write" (Json.string "mine")
          (expect_ok "get" (Client.get c ~key:"ryw")));
    ]

let test_kvs_causal_consistency () =
  let w = make_world () in
  let version_iv = Ivar.create () in
  run_clients w
    [
      (fun () ->
        let a = Client.connect w.sess ~rank:7 in
        expect_ok "put" (Client.put a ~key:"msg" (Json.string "hello"));
        let v = expect_ok "commit" (Client.commit a) in
        (* "Process A communicates to process B that it has updated a
           data item, passing a store version in that message." *)
        Ivar.fill w.eng version_iv v);
      (fun () ->
        let b = Client.connect w.sess ~rank:14 in
        let v = Proc.await version_iv in
        expect_ok "wait_version" (Client.wait_version b v);
        check json_t "B sees A's update" (Json.string "hello")
          (expect_ok "get" (Client.get b ~key:"msg")));
    ]

let test_kvs_monotonic_versions () =
  let w = make_world () in
  let seen = ref [] in
  (* Record every version change observed at rank 9 via polling gets. *)
  run_clients w
    [
      (fun () ->
        let c = Client.connect w.sess ~rank:3 in
        for i = 1 to 5 do
          expect_ok "put" (Client.put c ~key:"k" (Json.int i));
          ignore (expect_ok "commit" (Client.commit c) : int)
        done);
      (fun () ->
        let c = Client.connect w.sess ~rank:9 in
        for _ = 1 to 40 do
          let v = expect_ok "get_version" (Client.get_version c) in
          seen := v :: !seen;
          Proc.sleep 0.0005
        done);
    ];
  let rec monotonic = function
    | a :: (b :: _ as rest) -> a <= b && monotonic rest
    | _ -> true
  in
  check bool "versions never decrease" true (monotonic (List.rev !seen))

let test_kvs_cross_node_visibility () =
  let w = make_world () in
  let committed = Ivar.create () in
  run_clients w
    [
      (fun () ->
        let c = Client.connect w.sess ~rank:5 in
        expect_ok "put" (Client.put c ~key:"shared.x" (Json.int 1));
        expect_ok "put" (Client.put c ~key:"shared.y" (Json.int 2));
        let v = expect_ok "commit" (Client.commit c) in
        Ivar.fill w.eng committed v);
      (fun () ->
        let c = Client.connect w.sess ~rank:11 in
        let v = Proc.await committed in
        expect_ok "wait" (Client.wait_version c v);
        check json_t "x visible" (Json.int 1) (expect_ok "get x" (Client.get c ~key:"shared.x"));
        check json_t "y visible" (Json.int 2) (expect_ok "get y" (Client.get c ~key:"shared.y")));
    ]

let test_kvs_get_missing_key () =
  let w = make_world () in
  run_clients w
    [
      (fun () ->
        let c = Client.connect w.sess ~rank:2 in
        match Client.get c ~key:"no.such.key" with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e -> check string "error" "key not found: no.such.key" e);
    ]

let test_kvs_fence_collective () =
  let w = make_world ~size:7 () in
  let nprocs = 14 in
  (* two clients per rank *)
  let bodies =
    List.concat_map
      (fun r ->
        List.map
          (fun i () ->
            let c = Client.connect w.sess ~rank:r in
            let key = Printf.sprintf "ex.rank%d-%d" r i in
            expect_ok "put" (Client.put c ~key (Json.int ((100 * r) + i)));
            ignore (expect_ok "fence" (Client.fence c ~name:"f1" ~nprocs) : int);
            (* After the fence, every participant's value is visible. *)
            for r' = 0 to 6 do
              for i' = 0 to 1 do
                let key' = Printf.sprintf "ex.rank%d-%d" r' i' in
                check json_t key' (Json.int ((100 * r') + i'))
                  (expect_ok "get" (Client.get c ~key:key'))
              done
            done)
          [ 0; 1 ])
      (List.init 7 Fun.id)
  in
  run_clients w bodies;
  (* The fence produced exactly one version bump. *)
  check int "single version" 1 (Kvs.version w.kvs.(0))

let test_kvs_fence_dedup_bytes () =
  (* Redundant values must cross the root links once per hop, unique
     values concatenate: root ingress bytes differ accordingly. *)
  let run_fence ~redundant =
    let w = make_world ~size:15 () in
    let nprocs = 15 in
    let bodies =
      List.map
        (fun r () ->
          let c = Client.connect w.sess ~rank:r in
          let v =
            if redundant then Json.pad 2048 else Json.pad_unique 2048 r
          in
          expect_ok "put" (Client.put c ~key:(Printf.sprintf "d.k%d" r) v);
          ignore (expect_ok "fence" (Client.fence c ~name:"f" ~nprocs) : int))
        (List.init 15 Fun.id)
    in
    run_clients w bodies;
    Session.root_rpc_ingress_bytes w.sess
  in
  let unique_bytes = run_fence ~redundant:false in
  let redundant_bytes = run_fence ~redundant:true in
  check bool
    (Printf.sprintf "dedup shrinks root ingress (unique=%d redundant=%d)" unique_bytes
       redundant_bytes)
    true
    (float_of_int redundant_bytes < 0.45 *. float_of_int unique_bytes)

let test_kvs_fault_in_coalescing () =
  let w = make_world ~size:7 () in
  let produced = Ivar.create () in
  let bodies =
    (fun () ->
      let c = Client.connect w.sess ~rank:0 in
      expect_ok "put" (Client.put c ~key:"big.obj" (Json.pad 4096));
      let v = expect_ok "commit" (Client.commit c) in
      Ivar.fill w.eng produced v)
    :: List.concat_map
         (fun i ->
           List.map
             (fun _ () ->
               let c = Client.connect w.sess ~rank:6 in
               let v = Proc.await produced in
               expect_ok "wait" (Client.wait_version c v);
               ignore i;
               check json_t "value" (Json.pad 4096)
                 (expect_ok "get" (Client.get c ~key:"big.obj")))
             [ 0; 1; 2; 3 ])
         [ 0 ]
  in
  run_clients w bodies;
  (* Rank 6 has four concurrent readers but coalesces the fault-ins:
     at most one load per missing object (root dir, "big" dir, value). *)
  check bool "coalesced loads" true (Kvs.loads_issued w.kvs.(6) <= 3)

let test_kvs_cache_expiry_refault () =
  let w = make_world ~size:7 () in
  run_clients w
    [
      (fun () ->
        let c = Client.connect w.sess ~rank:5 in
        expect_ok "put" (Client.put c ~key:"e.k" (Json.int 5));
        ignore (expect_ok "commit" (Client.commit c) : int);
        check json_t "before expiry" (Json.int 5) (expect_ok "get" (Client.get c ~key:"e.k"));
        (* Expire the slave cache; the next get must re-fault from up
           the tree and still succeed. *)
        Kvs.expire_cache w.kvs.(5);
        check json_t "after expiry" (Json.int 5) (expect_ok "get" (Client.get c ~key:"e.k")));
    ]

let test_kvs_watch () =
  let w = make_world ~size:7 () in
  let fired = ref [] in
  run_clients w
    [
      (fun () ->
        let c = Client.connect w.sess ~rank:6 in
        expect_ok "watch" (Client.watch c ~key:"w.k" (fun v -> fired := v :: !fired));
        Proc.sleep 0.5);
      (fun () ->
        Proc.sleep 0.01;
        let c = Client.connect w.sess ~rank:3 in
        expect_ok "put" (Client.put c ~key:"w.k" (Json.int 1));
        ignore (expect_ok "commit" (Client.commit c) : int);
        Proc.sleep 0.1;
        (* An unrelated commit must not fire the watch. *)
        expect_ok "put2" (Client.put c ~key:"other" (Json.int 9));
        ignore (expect_ok "commit2" (Client.commit c) : int);
        Proc.sleep 0.1;
        expect_ok "put3" (Client.put c ~key:"w.k" (Json.int 2));
        ignore (expect_ok "commit3" (Client.commit c) : int));
    ];
  let observed = List.rev !fired in
  check int "initial + two changes" 3 (List.length observed);
  (match observed with
  | [ None; Some a; Some b ] ->
    check json_t "first change" (Json.int 1) a;
    check json_t "second change" (Json.int 2) b
  | _ -> Alcotest.fail "unexpected watch sequence")

let test_kvs_watch_directory () =
  let w = make_world ~size:3 () in
  let fired = ref 0 in
  run_clients w
    [
      (fun () ->
        let c = Client.connect w.sess ~rank:2 in
        (* Watching a *directory* fires when keys beneath it change. *)
        expect_ok "watch" (Client.watch c ~key:"dir.sub.leaf" (fun _ -> incr fired));
        Proc.sleep 0.5);
      (fun () ->
        Proc.sleep 0.01;
        let c = Client.connect w.sess ~rank:1 in
        expect_ok "put" (Client.put c ~key:"dir.sub.leaf" (Json.int 1));
        ignore (expect_ok "commit" (Client.commit c) : int));
    ];
  check int "initial None + change" 2 !fired

let test_kvs_concurrent_commits_all_apply () =
  let w = make_world ~size:7 () in
  run_clients w
    (List.map
       (fun r () ->
         let c = Client.connect w.sess ~rank:r in
         expect_ok "put" (Client.put c ~key:(Printf.sprintf "cc.k%d" r) (Json.int r));
         ignore (expect_ok "commit" (Client.commit c) : int))
       (List.init 7 Fun.id));
  (* All seven commits landed; check from a fresh reader. *)
  run_clients w
    [
      (fun () ->
        let c = Client.connect w.sess ~rank:4 in
        expect_ok "wait" (Client.wait_version c 7);
        for r = 0 to 6 do
          check json_t "all present" (Json.int r)
            (expect_ok "get" (Client.get c ~key:(Printf.sprintf "cc.k%d" r)))
        done);
    ]

let test_kvs_overwrite_visible () =
  let w = make_world ~size:3 () in
  run_clients w
    [
      (fun () ->
        let c = Client.connect w.sess ~rank:1 in
        expect_ok "put" (Client.put c ~key:"ow" (Json.int 1));
        ignore (expect_ok "commit" (Client.commit c) : int);
        expect_ok "put" (Client.put c ~key:"ow" (Json.int 2));
        ignore (expect_ok "commit" (Client.commit c) : int);
        check json_t "overwritten" (Json.int 2) (expect_ok "get" (Client.get c ~key:"ow")));
    ]

let test_kvs_depth_loading () =
  (* kvs loaded only at tree depth <= 1 (ranks 0,1,2 of a binary tree):
     leaf clients transparently reach the nearest loaded instance. *)
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  let kvs = Kvs.load sess ~ranks:(Kvs.ranks_to_depth sess 1) () in
  check int "three instances" 3 (Array.length kvs);
  let remaining = ref 2 in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:14 in
         expect_ok "put" (Client.put c ~key:"dl.k" (Json.int 5));
         ignore (expect_ok "commit" (Client.commit c) : int);
         decr remaining)
      : Proc.pid);
  ignore
    (Proc.spawn eng (fun () ->
         Proc.sleep 0.05;
         let c = Client.connect sess ~rank:9 in
         check json_t "read from another leaf" (Json.int 5)
           (expect_ok "get" (Client.get c ~key:"dl.k"));
         decr remaining)
      : Proc.pid);
  Engine.run eng;
  check int "clients completed" 0 !remaining;
  (* Fence across all leaves also works through upstream routing. *)
  let n_fence = 6 in
  let released = ref 0 in
  for i = 0 to n_fence - 1 do
    ignore
      (Proc.spawn eng (fun () ->
           let c = Client.connect sess ~rank:(9 + i) in
           ignore (expect_ok "fence" (Client.fence c ~name:"dl-f" ~nprocs:n_fence) : int);
           incr released)
        : Proc.pid)
  done;
  Engine.run eng;
  check int "fence released all" n_fence !released

let test_kvs_depth_loading_requires_master () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  Alcotest.check_raises "ranks must include 0"
    (Invalid_argument "Kvs_module.load: ranks must include the master (0)") (fun () ->
      ignore (Kvs.load sess ~ranks:[ 1; 2 ] () : Kvs.t array))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "flux_kvs"
    [
      ( "tree",
        [
          Alcotest.test_case "basic path" `Quick test_tree_basic;
          Alcotest.test_case "update yields new root" `Quick test_tree_update_creates_new_root;
          Alcotest.test_case "siblings unaffected" `Quick test_tree_siblings_unaffected;
          Alcotest.test_case "content addressing stable" `Quick test_tree_content_addressing_stable;
          Alcotest.test_case "later tuple wins" `Quick test_tree_later_tuple_wins;
          Alcotest.test_case "value replaced by dir" `Quick test_tree_value_overwritten_by_dir;
          Alcotest.test_case "invalid keys" `Quick test_split_key_invalid;
          Alcotest.test_case "missing object reported" `Quick test_lookup_reports_missing;
          Alcotest.test_case "one key into 600 entries: allocation" `Quick test_apply_allocation;
          Alcotest.test_case "pinned root digest" `Quick test_pinned_root;
        ] );
      qsuite "tree-props" [ prop_tree_many_keys; prop_merge_matches_reference ];
      ( "consistency",
        [
          Alcotest.test_case "single node" `Quick test_kvs_single_node;
          Alcotest.test_case "read your writes" `Quick test_kvs_read_your_writes;
          Alcotest.test_case "causal" `Quick test_kvs_causal_consistency;
          Alcotest.test_case "monotonic versions" `Quick test_kvs_monotonic_versions;
          Alcotest.test_case "cross-node visibility" `Quick test_kvs_cross_node_visibility;
          Alcotest.test_case "missing key" `Quick test_kvs_get_missing_key;
          Alcotest.test_case "overwrite" `Quick test_kvs_overwrite_visible;
          Alcotest.test_case "concurrent commits" `Quick test_kvs_concurrent_commits_all_apply;
        ] );
      ( "fence",
        [
          Alcotest.test_case "collective completion" `Quick test_kvs_fence_collective;
          Alcotest.test_case "value dedup on the wire" `Quick test_kvs_fence_dedup_bytes;
        ] );
      ( "caching",
        [
          Alcotest.test_case "fault-in coalescing" `Quick test_kvs_fault_in_coalescing;
          Alcotest.test_case "expiry refault" `Quick test_kvs_cache_expiry_refault;
        ] );
      ( "depth-loading",
        [
          Alcotest.test_case "leaves route upstream" `Quick test_kvs_depth_loading;
          Alcotest.test_case "master required" `Quick test_kvs_depth_loading_requires_master;
        ] );
      ( "watch",
        [
          Alcotest.test_case "value watch" `Quick test_kvs_watch;
          Alcotest.test_case "directory watch" `Quick test_kvs_watch_directory;
        ] );
    ]
