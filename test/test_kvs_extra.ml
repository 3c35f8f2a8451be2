(* Additional KVS coverage: mput, inline-vs-reference storage, watches,
   version waiters, and fence edge cases. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Ivar = Flux_sim.Ivar
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let json_t = Alcotest.testable Json.pp Json.equal

let expect_ok label = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" label e

let make_world ?(size = 15) () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size () in
  let kvs = Kvs.load sess () in
  (eng, sess, kvs)

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

(* --- mput ------------------------------------------------------------------ *)

let test_mput_atomic_batch () =
  let eng, sess, kvs = make_world () in
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:9 in
        let bindings =
          Json.list
            (List.init 5 (fun i ->
                 Json.obj
                   [
                     ("key", Json.string (Printf.sprintf "mp.k%d" i)); ("v", Json.int (i * i));
                   ]))
        in
        (match Api.rpc api ~topic:"kvs.mput" (Json.obj [ ("bindings", bindings) ]) with
        | Ok reply -> check int "single version bump" 1 (Json.to_int (Json.member "version" reply))
        | Error e -> Alcotest.failf "mput: %s" e);
        let c = Client.connect sess ~rank:3 in
        expect_ok "wait" (Client.wait_version c 1);
        for i = 0 to 4 do
          check json_t
            (Printf.sprintf "mp.k%d" i)
            (Json.int (i * i))
            (expect_ok "get" (Client.get c ~key:(Printf.sprintf "mp.k%d" i)))
        done);
    ];
  check int "master version" 1 (Kvs.version kvs.(0))

(* --- Inline vs by-reference storage ------------------------------------------- *)

let test_inline_threshold_behaviour () =
  (* Small values live inside directory entries (reading them costs only
     the directory fault); large values are separate objects (one more
     fault). Observed through the slave's load counter. *)
  let count_loads vsize =
    let eng, sess, kvs = make_world ~size:7 () in
    run_clients eng
      [
        (fun () ->
          let w = Client.connect sess ~rank:0 in
          expect_ok "put" (Client.put w ~key:"t.k" (Json.pad vsize));
          ignore (expect_ok "commit" (Client.commit w) : int);
          let r = Client.connect sess ~rank:6 in
          expect_ok "wait" (Client.wait_version r 1);
          check json_t "value intact" (Json.pad vsize) (expect_ok "get" (Client.get r ~key:"t.k")));
      ];
    Kvs.loads_issued kvs.(6)
  in
  let small = count_loads 64 in
  let large = count_loads 4096 in
  check int "small value: root + t dir only" 2 small;
  check int "large value: one extra fault for the object" 3 large

(* --- getroot and versions -------------------------------------------------------- *)

let test_getroot_reports_master_state () =
  let eng, sess, _ = make_world ~size:3 () in
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:2 in
        let before =
          match Api.rpc api ~topic:"kvs.getroot" Json.null with
          | Ok p -> Json.to_string_v (Json.member "rootref" p)
          | Error e -> Alcotest.failf "getroot: %s" e
        in
        let c = Client.connect sess ~rank:2 in
        expect_ok "put" (Client.put c ~key:"gr.k" (Json.int 1));
        ignore (expect_ok "commit" (Client.commit c) : int);
        let after =
          match Api.rpc api ~topic:"kvs.getroot" Json.null with
          | Ok p -> Json.to_string_v (Json.member "rootref" p)
          | Error e -> Alcotest.failf "getroot: %s" e
        in
        check bool "root reference changed" true (before <> after));
    ]

let test_multiple_version_waiters () =
  let eng, sess, _ = make_world ~size:7 () in
  let woken = ref [] in
  let bodies =
    List.map
      (fun target () ->
        let c = Client.connect sess ~rank:5 in
        expect_ok "wait" (Client.wait_version c target);
        woken := target :: !woken)
      [ 1; 2; 3 ]
    @ [
        (fun () ->
          let c = Client.connect sess ~rank:1 in
          for i = 1 to 3 do
            Proc.sleep 0.01;
            expect_ok "put" (Client.put c ~key:(Printf.sprintf "vw.k%d" i) (Json.int i));
            ignore (expect_ok "commit" (Client.commit c) : int)
          done);
      ]
  in
  run_clients eng bodies;
  check (Alcotest.list int) "waiters woken in version order" [ 1; 2; 3 ] (List.rev !woken)

(* --- Watches ------------------------------------------------------------------------ *)

let test_unwatch_stops_callbacks () =
  let eng, sess, _ = make_world ~size:3 () in
  let fired = ref 0 in
  run_clients eng
    [
      (fun () ->
        let c = Client.connect sess ~rank:2 in
        expect_ok "watch" (Client.watch c ~key:"uw.k" (fun _ -> incr fired));
        Proc.sleep 0.3;
        Client.unwatch c ~key:"uw.k";
        Proc.sleep 0.3);
      (fun () ->
        let c = Client.connect sess ~rank:1 in
        Proc.sleep 0.1;
        expect_ok "put1" (Client.put c ~key:"uw.k" (Json.int 1));
        ignore (expect_ok "commit1" (Client.commit c) : int);
        (* This change lands after the unwatch. *)
        Proc.sleep 0.4;
        expect_ok "put2" (Client.put c ~key:"uw.k" (Json.int 2));
        ignore (expect_ok "commit2" (Client.commit c) : int));
    ];
  (* initial None + first change only *)
  check int "no callbacks after unwatch" 2 !fired

(* --- Fence edge cases ------------------------------------------------------------------ *)

let test_fence_single_participant () =
  let eng, sess, _ = make_world ~size:7 () in
  run_clients eng
    [
      (fun () ->
        let c = Client.connect sess ~rank:6 in
        expect_ok "put" (Client.put c ~key:"solo.k" (Json.int 1));
        let v = expect_ok "fence" (Client.fence c ~name:"solo" ~nprocs:1) in
        check int "committed" 1 v;
        check json_t "visible" (Json.int 1) (expect_ok "get" (Client.get c ~key:"solo.k")));
    ]

let test_two_fences_interleaved () =
  (* Two independent fences with different participant sets complete
     independently and both data sets land. *)
  let eng, sess, _ = make_world ~size:7 () in
  let bodies =
    List.map
      (fun r () ->
        let c = Client.connect sess ~rank:r in
        expect_ok "put" (Client.put c ~key:(Printf.sprintf "fa.k%d" r) (Json.int r));
        ignore (expect_ok "fence" (Client.fence c ~name:"fa" ~nprocs:3) : int))
      [ 0; 2; 4 ]
    @ List.map
        (fun r () ->
          let c = Client.connect sess ~rank:r in
          expect_ok "put" (Client.put c ~key:(Printf.sprintf "fb.k%d" r) (Json.int (100 + r)));
          ignore (expect_ok "fence" (Client.fence c ~name:"fb" ~nprocs:3) : int))
        [ 1; 3; 5 ]
  in
  run_clients eng bodies;
  run_clients eng
    [
      (fun () ->
        let c = Client.connect sess ~rank:6 in
        expect_ok "wait" (Client.wait_version c 2);
        List.iter
          (fun r ->
            check json_t "fa data" (Json.int r)
              (expect_ok "get" (Client.get c ~key:(Printf.sprintf "fa.k%d" r))))
          [ 0; 2; 4 ];
        List.iter
          (fun r ->
            check json_t "fb data"
              (Json.int (100 + r))
              (expect_ok "get" (Client.get c ~key:(Printf.sprintf "fb.k%d" r))))
          [ 1; 3; 5 ]);
    ]

let test_fence_abort_then_retry () =
  (* A timed-out fence is aborted up the tree, clearing the name's
     parked aggregation state at every hop — so once all participants
     are actually ready, the same name completes fresh. *)
  let eng, sess, _ = make_world ~size:7 () in
  let release = Ivar.create () in
  run_clients eng
    [
      (fun () ->
        let c = Client.connect sess ~rank:3 in
        expect_ok "put" (Client.put c ~key:"ar.k3" (Json.int 3));
        (match Client.fence c ~name:"ar.fence" ~nprocs:2 ~timeout:0.5 with
        | Ok _ -> Alcotest.fail "fence completed without its peer"
        | Error _ -> Client.abort c);
        (* Let the abort finish propagating before reusing the name. *)
        Proc.sleep 0.1;
        Ivar.fill eng release ();
        expect_ok "put again" (Client.put c ~key:"ar.k3" (Json.int 3));
        ignore (expect_ok "retry fence" (Client.fence c ~name:"ar.fence" ~nprocs:2) : int));
      (fun () ->
        Proc.await release;
        let c = Client.connect sess ~rank:5 in
        expect_ok "put" (Client.put c ~key:"ar.k5" (Json.int 5));
        ignore (expect_ok "peer fence" (Client.fence c ~name:"ar.fence" ~nprocs:2) : int));
    ];
  run_clients eng
    [
      (fun () ->
        let c = Client.connect sess ~rank:1 in
        expect_ok "wait" (Client.wait_version c 1);
        check json_t "k3 committed" (Json.int 3) (expect_ok "get" (Client.get c ~key:"ar.k3"));
        check json_t "k5 committed" (Json.int 5) (expect_ok "get" (Client.get c ~key:"ar.k5")));
    ]

let test_fence_abort_unparks_peer () =
  (* When one participant abandons the fence, peers parked on it get a
     structured "fence aborted" error instead of hanging forever. *)
  let eng, sess, _ = make_world ~size:7 () in
  let peer_result = ref None in
  run_clients eng
    [
      (fun () ->
        let c = Client.connect sess ~rank:3 in
        expect_ok "put" (Client.put c ~key:"au.k3" (Json.int 3));
        (match Client.fence c ~name:"au.fence" ~nprocs:3 ~timeout:0.5 with
        | Ok _ -> Alcotest.fail "fence completed without its peers"
        | Error _ -> Client.abort c));
      (fun () ->
        let c = Client.connect sess ~rank:5 in
        expect_ok "put" (Client.put c ~key:"au.k5" (Json.int 5));
        (* No timeout: only the propagated abort can release this one. *)
        peer_result := Some (Client.fence c ~name:"au.fence" ~nprocs:3));
    ];
  let contains_abort e =
    let marker = "fence aborted" in
    let n = String.length marker and m = String.length e in
    let rec at i = i + n <= m && (String.equal (String.sub e i n) marker || at (i + 1)) in
    at 0
  in
  match !peer_result with
  | Some (Error e) ->
    check bool (Printf.sprintf "abort error surfaced (got %S)" e) true (contains_abort e)
  | Some (Ok _) -> Alcotest.fail "parked peer completed a fence that was aborted"
  | None -> Alcotest.fail "parked peer still blocked after abort"

let test_snapshot_isolation_during_update () =
  (* A get pinned to the old root mid-commit still resolves from the old
     snapshot: old and new objects coexist (atomic root switch). *)
  let eng, sess, _ = make_world ~size:7 () in
  run_clients eng
    [
      (fun () ->
        let c = Client.connect sess ~rank:4 in
        expect_ok "put" (Client.put c ~key:"si.k" (Json.int 1));
        ignore (expect_ok "commit" (Client.commit c) : int);
        check json_t "v1" (Json.int 1) (expect_ok "get" (Client.get c ~key:"si.k"));
        expect_ok "put2" (Client.put c ~key:"si.k" (Json.int 2));
        ignore (expect_ok "commit2" (Client.commit c) : int);
        check json_t "v2" (Json.int 2) (expect_ok "get" (Client.get c ~key:"si.k")));
    ]

(* --- Malformed keys ------------------------------------------------------------ *)

let test_malformed_keys_refused () =
  (* Every entry point answers a bad key with an error reply, at the
     master and at a slave, and the session keeps serving afterwards. *)
  let eng, sess, _ = make_world ~size:7 () in
  let bad_keys = [ "a..b"; ""; ".x"; "x." ] in
  let sha = Flux_sha1.Sha1.to_hex (Flux_sha1.Sha1.digest_json (Json.int 1)) in
  let tuples key = Json.list [ Json.obj [ ("k", Json.string key); ("s", Json.string sha) ] ] in
  let refused label = function
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error _ -> ()
  in
  run_clients eng
    (List.map
       (fun rank () ->
         let c = Client.connect sess ~rank in
         let api = Api.connect sess ~rank in
         List.iter
           (fun key ->
             let label op = Printf.sprintf "%s %S at rank %d" op key rank in
             refused (label "get") (Client.get c ~key);
             refused (label "put") (Client.put c ~key (Json.int 1));
             ignore (expect_ok (label "commit after refused put") (Client.commit c) : int);
             refused (label "mput")
               (Api.rpc api ~topic:"kvs.mput"
                  (Json.obj
                     [
                       ( "bindings",
                         Json.list
                           [
                             Json.obj [ ("key", Json.string "ok.k"); ("v", Json.int 1) ];
                             Json.obj [ ("key", Json.string key); ("v", Json.int 2) ];
                           ] );
                     ]));
             refused (label "raw commit")
               (Api.rpc api ~topic:"kvs.commit" (Json.obj [ ("tuples", tuples key) ]));
             refused (label "raw fence")
               (Api.rpc api ~topic:"kvs.fence"
                  (Json.obj
                     [
                       ("name", Json.string (Printf.sprintf "bad.%d.%d" rank (String.length key)));
                       ("nprocs", Json.int 1);
                       ("tuples", tuples key);
                     ])))
           bad_keys;
         refused "raw commit with a malformed digest"
           (Api.rpc api ~topic:"kvs.commit"
              (Json.obj
                 [
                   ( "tuples",
                     Json.list
                       [ Json.obj [ ("k", Json.string "ok.k"); ("s", Json.string "xyz") ] ] );
                 ]));
         let key = Printf.sprintf "after.r%d" rank in
         expect_ok "valid put" (Client.put c ~key (Json.int rank));
         ignore (expect_ok "valid commit" (Client.commit c) : int);
         check json_t "valid get" (Json.int rank) (expect_ok "valid get" (Client.get c ~key)))
       [ 0; 5 ]);
  (* The refused mput left nothing behind: its valid binding is absent. *)
  run_clients eng
    [
      (fun () ->
        let c = Client.connect sess ~rank:3 in
        refused "half of a refused mput" (Client.get c ~key:"ok.k"));
    ]

let () =
  Alcotest.run "flux_kvs_extra"
    [
      ("mput", [ Alcotest.test_case "atomic batch" `Quick test_mput_atomic_batch ]);
      ( "storage",
        [ Alcotest.test_case "inline threshold" `Quick test_inline_threshold_behaviour ] );
      ( "versions",
        [
          Alcotest.test_case "getroot" `Quick test_getroot_reports_master_state;
          Alcotest.test_case "multiple waiters" `Quick test_multiple_version_waiters;
        ] );
      ("watch", [ Alcotest.test_case "unwatch" `Quick test_unwatch_stops_callbacks ]);
      ("keys", [ Alcotest.test_case "malformed keys refused" `Quick test_malformed_keys_refused ]);
      ( "fence",
        [
          Alcotest.test_case "single participant" `Quick test_fence_single_participant;
          Alcotest.test_case "two fences interleaved" `Quick test_two_fences_interleaved;
          Alcotest.test_case "abort then retry same name" `Quick test_fence_abort_then_retry;
          Alcotest.test_case "abort unparks peer" `Quick test_fence_abort_unparks_peer;
          Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation_during_update;
        ] );
    ]
