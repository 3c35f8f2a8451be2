(* Tests for the distributed-master KVS (sharded volumes) and the Direct
   rank-addressed overlay it relies on. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Ivar = Flux_sim.Ivar
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Volumes = Flux_kvs.Volumes

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let json_t = Alcotest.testable Json.pp Json.equal

let expect_ok label = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" label e

let make_world ?(size = 16) ~shards () =
  let eng = Engine.create () in
  let sess = Session.create eng ~rank_topology:Session.Direct ~size () in
  let vt = Volumes.load sess ~shards () in
  (eng, sess, vt)

let run_clients eng bodies =
  let remaining = ref (List.length bodies) in
  List.iter
    (fun body ->
      ignore
        (Proc.spawn eng (fun () ->
             body ();
             decr remaining)))
    bodies;
  Engine.run eng;
  if !remaining <> 0 then Alcotest.failf "%d clients did not complete" !remaining

(* --- Direct rank plane ---------------------------------------------------- *)

let test_direct_overlay_rpc () =
  let eng = Engine.create () in
  let sess = Session.create eng ~rank_topology:Session.Direct ~size:8 () in
  let api = Api.connect sess ~rank:6 in
  let got = ref None in
  ignore
    (Proc.spawn eng (fun () -> got := Some (Api.rpc_rank api ~dst:3 ~topic:"cmb.ping" Json.null)));
  Engine.run eng;
  (match !got with
  | Some (Ok p) -> check int "reached rank 3" 3 (Json.to_int (Json.member "rank" p))
  | _ -> Alcotest.fail "direct rpc failed");
  (* One hop out, one hop back: exactly two messages on the plane. *)
  check int "two messages" 2 (Session.ring_net_stats sess).Flux_sim.Net.messages

(* --- Volume layout ----------------------------------------------------------- *)

let test_masters_spread () =
  let _, _, vt = make_world ~size:16 ~shards:4 () in
  check (Alcotest.list int) "masters spread across the machine" [ 0; 4; 8; 12 ]
    (List.init 4 (Volumes.master_rank vt));
  List.iteri
    (fun v m ->
      check bool
        (Printf.sprintf "volume %d master flag at rank %d" v m)
        true
        (Kvs.is_master (Volumes.instance vt ~volume:v ~rank:m)))
    [ 0; 4; 8; 12 ]

let test_volume_of_key_stable () =
  let _, _, vt = make_world ~size:8 ~shards:4 () in
  let v1 = Volumes.volume_of_key vt "alpha.x" in
  check int "same first component, same volume" v1 (Volumes.volume_of_key vt "alpha.y.z");
  let spread =
    List.sort_uniq compare
      (List.init 64 (fun i -> Volumes.volume_of_key vt (Printf.sprintf "dir%d.k" i)))
  in
  check bool "keys spread over several volumes" true (List.length spread >= 3)

(* --- Read/write through volumes ------------------------------------------------ *)

let test_volumes_put_commit_get () =
  let eng, _, vt = make_world ~size:16 ~shards:4 () in
  run_clients eng
    [
      (fun () ->
        let c = Volumes.client vt ~rank:13 in
        (* Keys landing in different volumes. *)
        for i = 0 to 15 do
          expect_ok "put" (Volumes.put c ~key:(Printf.sprintf "dir%d.k" i) (Json.int i))
        done;
        ignore (expect_ok "commit" (Volumes.commit c) : int);
        for i = 0 to 15 do
          check json_t
            (Printf.sprintf "dir%d.k" i)
            (Json.int i)
            (expect_ok "get" (Volumes.get c ~key:(Printf.sprintf "dir%d.k" i)))
        done);
    ]

let test_volumes_cross_rank_visibility () =
  let eng, _, vt = make_world ~size:16 ~shards:4 () in
  let committed = Ivar.create () in
  run_clients eng
    [
      (fun () ->
        let c = Volumes.client vt ~rank:3 in
        for i = 0 to 7 do
          expect_ok "put" (Volumes.put c ~key:(Printf.sprintf "vis%d.k" i) (Json.int i))
        done;
        ignore (expect_ok "commit" (Volumes.commit c) : int);
        Ivar.fill eng committed ());
      (fun () ->
        Proc.await committed;
        (* Give the setroot events a moment to multicast. *)
        Proc.sleep 0.01;
        let c = Volumes.client vt ~rank:14 in
        for i = 0 to 7 do
          check json_t "remote read" (Json.int i)
            (expect_ok "get" (Volumes.get c ~key:(Printf.sprintf "vis%d.k" i)))
        done);
    ]

let test_volumes_fence () =
  let eng, _, vt = make_world ~size:8 ~shards:2 () in
  let nprocs = 16 in
  let bodies =
    List.concat_map
      (fun r ->
        List.map
          (fun i () ->
            let c = Volumes.client vt ~rank:r in
            let key = Printf.sprintf "f%d-%d.k" r i in
            expect_ok "put" (Volumes.put c ~key (Json.int ((10 * r) + i)));
            expect_ok "fence" (Volumes.fence c ~name:"vf" ~nprocs);
            (* Every participant's write is visible afterwards. *)
            for r' = 0 to 7 do
              for i' = 0 to 1 do
                check json_t "post-fence read"
                  (Json.int ((10 * r') + i'))
                  (expect_ok "get" (Volumes.get c ~key:(Printf.sprintf "f%d-%d.k" r' i')))
              done
            done)
          [ 0; 1 ])
      (List.init 8 Fun.id)
  in
  run_clients eng bodies

let test_volumes_commit_only_touches_dirty () =
  let eng, _, vt = make_world ~size:8 ~shards:4 () in
  run_clients eng
    [
      (fun () ->
        let c = Volumes.client vt ~rank:5 in
        expect_ok "put" (Volumes.put c ~key:"only.k" (Json.int 1));
        let vol = Volumes.volume_of_key vt "only.k" in
        ignore (expect_ok "commit" (Volumes.commit c) : int);
        (* Only the touched volume advanced its version. *)
        List.iteri
          (fun v m ->
            let inst = Volumes.instance vt ~volume:v ~rank:m in
            if v = vol then check int "touched volume committed" 1 (Kvs.version inst)
            else check int "untouched volume still v0" 0 (Kvs.version inst))
          (List.init 4 (Volumes.master_rank vt)))
    ]

let test_single_shard_equivalence () =
  (* shards=1 behaves like the plain store (master at rank 0). *)
  let eng, _, vt = make_world ~size:8 ~shards:1 () in
  run_clients eng
    [
      (fun () ->
        let c = Volumes.client vt ~rank:7 in
        expect_ok "put" (Volumes.put c ~key:"a.b" (Json.int 9));
        ignore (expect_ok "commit" (Volumes.commit c) : int);
        check json_t "read back" (Json.int 9) (expect_ok "get" (Volumes.get c ~key:"a.b")));
    ]

let test_volumes_invalid_shards () =
  let eng = Engine.create () in
  let sess = Session.create eng ~rank_topology:Session.Direct ~size:4 () in
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Volumes.load: shards must be in [1, session size]") (fun () ->
      ignore (Volumes.load sess ~shards:0 () : Volumes.t));
  Alcotest.check_raises "too many shards"
    (Invalid_argument "Volumes.load: shards must be in [1, session size]") (fun () ->
      ignore (Volumes.load sess ~shards:5 () : Volumes.t))

let test_sharding_distributes_master_bytes () =
  (* The point of the exercise: with 4 volumes, no single master node
     ingests all committed bytes. Compare the biggest per-master store
     against a single-master run. *)
  let run shards =
    let eng, _, vt = make_world ~size:16 ~shards () in
    run_clients eng
      [
        (fun () ->
          let c = Volumes.client vt ~rank:9 in
          for i = 0 to 63 do
            expect_ok "put"
              (Volumes.put c ~key:(Printf.sprintf "load%d.k" i) (Json.pad 512))
          done;
          ignore (expect_ok "commit" (Volumes.commit c) : int));
      ];
    let per_master =
      List.init shards (fun v ->
          Kvs.store_bytes (Volumes.instance vt ~volume:v ~rank:(Volumes.master_rank vt v)))
    in
    List.fold_left max 0 per_master
  in
  let single = run 1 and sharded = run 4 in
  check bool
    (Printf.sprintf "max master bytes shrink (1 shard %d, 4 shards %d)" single sharded)
    true
    (sharded < single)

(* --- Key validation and routing properties --------------------------------- *)

let test_key_validation () =
  let _, _, vt = make_world ~size:8 ~shards:4 () in
  List.iter
    (fun bad ->
      (match Volumes.volume_for_key vt bad with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "volume_for_key routed %S to %d" bad v);
      match Volumes.volume_of_key vt bad with
      | exception Invalid_argument _ -> ()
      | v -> Alcotest.failf "volume_of_key routed %S to %d" bad v)
    [ ""; "."; ".x"; "x."; "a..b"; ".a.b"; "a.b." ];
  (* A put with an illegal key is a structured error, not a silent
     routing onto one fixed shard. *)
  let eng, _, vt = make_world ~size:8 ~shards:4 () in
  run_clients eng
    [
      (fun () ->
        let c = Volumes.client vt ~rank:5 in
        match Volumes.put c ~key:".oops.k" (Json.int 1) with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "put accepted a key with an empty component");
    ]

let prop_legal_keys_route =
  let _, _, vt = make_world ~size:8 ~shards:3 () in
  let component = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 8)) in
  let key_gen =
    QCheck.Gen.(map (String.concat ".") (list_size (1 -- 4) component))
  in
  let arb = QCheck.make ~print:(fun k -> k) key_gen in
  QCheck.Test.make ~name:"every legal key routes to exactly one stable shard"
    ~count:500 arb (fun key ->
      match (Volumes.volume_for_key vt key, Volumes.volume_for_key vt key) with
      | Ok a, Ok b ->
        a = b && a >= 0
        && a < 3
        (* …and only the first component decides. *)
        && Volumes.volume_for_key vt (key ^ ".suffix") = Ok a
      | _ -> false)

(* --- Admission sheds on the fan-out path ------------------------------------ *)

(* Regression: a busy shed from one volume's admission control must ride
   the Session busy/backoff machinery and retry — not abort the whole
   cross-shard fence. The client sits on volume 0's master, floods its
   apply queue past [admission_max_intake], then fences all volumes:
   volume 1 completes first and holds (phase 1) while volume 0 sheds,
   backs off, retries, and completes — then both release. *)
let test_fence_retries_admission_shed () =
  let eng = Engine.create () in
  let sess = Session.create eng ~rank_topology:Session.Direct ~size:8 () in
  let config =
    {
      Kvs.default_config with
      Kvs.apply_cpu_per_tuple = 5e-3;
      admission_max_intake = 2;
    }
  in
  let vt = Volumes.load sess ~config ~shards:2 () in
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:0 in
        (* Build an apply backlog at volume 0's master (this rank). *)
        for i = 0 to 11 do
          Api.rpc_async api ~timeout:5.0 ~attempts:1 ~topic:"kvs-0.mput"
            (Json.obj
               [
                 ( "bindings",
                   Json.list
                     [
                       Json.obj
                         [
                           ("key", Json.string (Printf.sprintf "flood.k%d" i));
                           ("v", Json.int i);
                         ];
                     ] );
               ])
            ~reply:(fun _ -> ());
          Proc.sleep 1e-4
        done;
        let c = Volumes.client vt ~rank:0 in
        expect_ok "put" (Volumes.put c ~key:"flood.fk" (Json.int 99));
        expect_ok "fence under admission pressure"
          (Volumes.fence c ~name:"shedf" ~nprocs:1));
    ];
  check bool "the fan-out was shed and retried through the busy machinery" true
    (Session.rpc_busy_retries sess > 0);
  check bool "volume 0 did shed" true
    (Kvs.admission_sheds (Volumes.instance vt ~volume:0 ~rank:0) > 0)

(* --- Partial failure must not strand applied volumes ------------------------ *)

(* Regression for the fold bug: when one volume's commit fails, volumes
   that succeeded must still clear their pending tuples, so the caller's
   retry re-sends only the failed volume's work (no double apply). A
   fence parked at volume 0 (nprocs=2, one contribution) pins its intake
   at the admission limit, so a concurrent commit touching volumes 0 and
   1 fails on 0 (attempts exhausted against the shed) and succeeds on 1;
   the second fence participant then unblocks everything and the retry
   commits volume 0 alone. *)
let test_partial_commit_failure_clears_applied () =
  let eng = Engine.create () in
  let sess = Session.create eng ~rank_topology:Session.Direct ~size:8 () in
  let config = { Kvs.default_config with Kvs.admission_max_intake = 1 } in
  let vt = Volumes.load sess ~config ~shards:2 () in
  let comp_of vol =
    (* First path components landing on each volume. *)
    let rec find i =
      let c = Printf.sprintf "s%d" i in
      if Volumes.volume_of_key vt (c ^ ".k") = vol then c else find (i + 1)
    in
    find 0
  in
  let c0 = comp_of 0 and c1 = comp_of 1 in
  let fence_parked = Ivar.create () in
  let commit_failed = Ivar.create () in
  run_clients eng
    [
      (fun () ->
        (* Participant 1 of 2: contributes at volume 0's master and
           parks, pinning intake at the limit. *)
        let c = Volumes.client vt ~rank:0 in
        expect_ok "put" (Volumes.put c ~key:(c0 ^ ".p1") (Json.int 1));
        Ivar.fill eng fence_parked ();
        expect_ok "parked fence" (Volumes.fence c ~name:"park" ~nprocs:2));
      (fun () ->
        Proc.await fence_parked;
        Proc.sleep 0.05;
        let c = Volumes.client vt ~rank:2 in
        expect_ok "put v0" (Volumes.put c ~key:(c0 ^ ".b") (Json.int 10));
        expect_ok "put v1" (Volumes.put c ~key:(c1 ^ ".b") (Json.int 11));
        (match Volumes.commit c with
        | Ok _ -> Alcotest.fail "commit should fail while volume 0 is pinned"
        | Error e ->
          check bool "error names the failing volume" true
            (try
               ignore (Str.search_forward (Str.regexp_string "kvs-0") e 0);
               true
             with Not_found -> false));
        Ivar.fill eng commit_failed ();
        (* Retry after the fence unparks: only volume 0's tuples are
           re-sent (volume 1 cleared on its success). *)
        Proc.sleep 0.2;
        ignore (expect_ok "retry commit" (Volumes.commit c) : int);
        check json_t "v0 write readable" (Json.int 10)
          (expect_ok "get" (Volumes.get c ~key:(c0 ^ ".b")));
        check json_t "v1 write readable" (Json.int 11)
          (expect_ok "get" (Volumes.get c ~key:(c1 ^ ".b"))));
      (fun () ->
        Proc.await commit_failed;
        (* Participant 2 of 2 completes the parked fence. *)
        let c = Volumes.client vt ~rank:4 in
        expect_ok "unpark fence" (Volumes.fence c ~name:"park" ~nprocs:2));
    ];
  (* Volume 1 applied the commit exactly once — the retry must not have
     re-sent its already-applied tuple (a fence with no tuples does not
     bump the version). *)
  let v1 = Volumes.instance vt ~volume:1 ~rank:(Volumes.master_rank vt 1) in
  check int "volume 1 applied the commit exactly once" 1 (Kvs.version v1)

(* --- Cross-shard fence accessors -------------------------------------------- *)

let test_cross_shard_composite () =
  let eng, sess, vt = make_world ~size:8 ~shards:2 () in
  let clients = [ 3; 6 ] in
  let bodies =
    List.map
      (fun r () ->
        let c = Volumes.client vt ~rank:r in
        expect_ok "put" (Volumes.put c ~key:(Printf.sprintf "x%d.k" r) (Json.int r));
        expect_ok "fence" (Volumes.fence c ~name:"merge" ~nprocs:2))
      clients
  in
  run_clients eng bodies;
  (* Every rank derived the same composite under the same epoch. *)
  for r = 0 to Session.size sess - 1 do
    check int (Printf.sprintf "xfence epoch at rank %d" r) 1
      (Volumes.xfence_epoch vt ~rank:r);
    match Volumes.last_composite vt ~rank:r with
    | None -> Alcotest.failf "rank %d has no composite" r
    | Some cx ->
      check Alcotest.string "composite names the fence" "merge"
        cx.Flux_kvs.Proto.cx_name;
      check int "composite spans both shards" 2
        (Array.length cx.Flux_kvs.Proto.cx_roots);
      Array.iteri
        (fun vol (ri : Flux_kvs.Proto.root_info) ->
          let m = Volumes.instance vt ~volume:vol ~rank:(Volumes.master_rank vt vol) in
          check int
            (Printf.sprintf "composite root %d matches volume version" vol)
            (Kvs.version m) ri.Flux_kvs.Proto.ri_version)
        cx.Flux_kvs.Proto.cx_roots
  done

let () =
  Alcotest.run "flux_volumes"
    [
      ("direct-plane", [ Alcotest.test_case "one-hop rpc" `Quick test_direct_overlay_rpc ]);
      ( "layout",
        [
          Alcotest.test_case "masters spread" `Quick test_masters_spread;
          Alcotest.test_case "stable key routing" `Quick test_volume_of_key_stable;
          Alcotest.test_case "invalid shards" `Quick test_volumes_invalid_shards;
          Alcotest.test_case "key validation" `Quick test_key_validation;
          QCheck_alcotest.to_alcotest prop_legal_keys_route;
        ] );
      ( "operations",
        [
          Alcotest.test_case "put/commit/get" `Quick test_volumes_put_commit_get;
          Alcotest.test_case "cross-rank visibility" `Quick test_volumes_cross_rank_visibility;
          Alcotest.test_case "fence across volumes" `Quick test_volumes_fence;
          Alcotest.test_case "commit touches dirty only" `Quick
            test_volumes_commit_only_touches_dirty;
          Alcotest.test_case "single shard equivalence" `Quick test_single_shard_equivalence;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "master bytes divided" `Quick
            test_sharding_distributes_master_bytes;
        ] );
      ( "cross-shard",
        [
          Alcotest.test_case "fence retries through admission sheds" `Quick
            test_fence_retries_admission_shed;
          Alcotest.test_case "partial commit failure clears applied volumes" `Quick
            test_partial_commit_failure_clears_applied;
          Alcotest.test_case "composite epoch-merge record" `Quick
            test_cross_shard_composite;
        ] );
    ]
