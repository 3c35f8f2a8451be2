(* Checkpoint/requeue kill schedules, snapshot store round-trips, and
   the damage model: a killed worker, a master lost mid-snapshot, or a
   death in the checkpoint/fence window must cost no acked write; a
   store rebuilt from serialized bytes must read back identically; and
   any single flipped byte must decode to a structured error. *)

module Ckpt = Flux_harness.Ckpt
module Snapshot = Flux_kvs.Snapshot
module Tree = Flux_kvs.Tree
module Kvs = Flux_kvs.Kvs_module
module Volumes = Flux_kvs.Volumes
module Client = Flux_kvs.Client
module Wexec = Flux_modules.Wexec
module Sha1 = Flux_sha1.Sha1
module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Metrics = Flux_trace.Metrics

let check = Alcotest.check
let expect_ok label = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" label e

(* --- Kill schedules -------------------------------------------------------- *)

let seeds = List.init 16 (fun i -> 1 + (13 * i))

let kind_of_seed seed =
  match seed mod 3 with
  | 0 -> Ckpt.Node_mid_job
  | 1 -> Ckpt.Master_mid_snapshot
  | _ -> Ckpt.Between_ckpt_and_fence

let kind_name = function
  | Ckpt.Node_mid_job -> "node-mid-job"
  | Ckpt.Master_mid_snapshot -> "master-mid-snapshot"
  | Ckpt.Between_ckpt_and_fence -> "between-ckpt-and-fence"

let run_seed seed =
  Ckpt.run { Ckpt.default with Ckpt.seed; kill = Some (kind_of_seed seed) }

let test_schedule seed () =
  let r = run_seed seed in
  (match r.Ckpt.r_violations with
  | [] -> ()
  | vs ->
    Alcotest.failf "seed %d: %d violations:\n%s" seed (List.length vs)
      (String.concat "\n" vs));
  check Alcotest.int
    (Printf.sprintf "seed %d: every epoch checkpointed" seed)
    Ckpt.default.Ckpt.epochs r.Ckpt.r_acked_epoch;
  (* Master schedules kill twice: the pre-phase deposes rank 0, then the
     assassin strikes the acting master while the capture is in flight. *)
  let min_kills =
    match kind_of_seed seed with Ckpt.Master_mid_snapshot -> 2 | _ -> 1
  in
  check Alcotest.bool
    (Printf.sprintf "seed %d: the schedule killed someone" seed)
    true
    (r.Ckpt.r_kills >= min_kills);
  check Alcotest.int
    (Printf.sprintf "seed %d: everyone killed was revived" seed)
    r.Ckpt.r_kills r.Ckpt.r_revives;
  check Alcotest.bool
    (Printf.sprintf "seed %d: the job completed" seed)
    true (r.Ckpt.r_attempts >= 1);
  check Alcotest.bool
    (Printf.sprintf "seed %d: readback exercised" seed)
    true (r.Ckpt.r_keys_checked > 0);
  check Alcotest.bool
    (Printf.sprintf "seed %d: final snapshot non-empty" seed)
    true
    (r.Ckpt.r_snapshot_objects > 0)

let test_deterministic kind () =
  let cfg = { Ckpt.default with Ckpt.seed = 7; kill = Some kind } in
  let a = Ckpt.run cfg and b = Ckpt.run cfg in
  if a <> b then
    Alcotest.failf "%s: same seed produced different reports" (kind_name kind)

let test_requeue_happens () =
  (* Node death mid-job must actually exercise the requeue path on at
     least one seed of the sweep. *)
  let requeued =
    List.exists
      (fun seed ->
        let r =
          Ckpt.run { Ckpt.default with Ckpt.seed = seed; kill = Some Ckpt.Node_mid_job }
        in
        r.Ckpt.r_requeues >= 1)
      [ 1; 3; 6; 9 ]
  in
  check Alcotest.bool "some schedule requeued" true requeued

(* --- Snapshot store round-trips -------------------------------------------- *)

(* Build a store by hand with interior directories, referenced leaf
   objects, and inline values — every dirent kind the walk must follow. *)
let build_store () =
  let tbl : (string, Json.t) Hashtbl.t = Hashtbl.create 16 in
  let store o =
    let sha = Sha1.digest_json o in
    Hashtbl.replace tbl (Sha1.to_hex sha) o;
    sha
  in
  let fetch sha = Hashtbl.find_opt tbl (Sha1.to_hex sha) in
  ignore (store Tree.empty_dir : Sha1.digest);
  let leaf = Json.obj [ ("payload", Json.string (String.make 64 'q')) ] in
  let leaf_sha = store leaf in
  let root =
    Tree.apply_tuples ~fetch ~store ~root:Tree.empty_dir_sha
      [
        ("a.b.c", Tree.dirent_file leaf_sha);
        ("a.b.d", Tree.dirent_val (Json.int 42));
        ("a.e", Tree.dirent_val (Json.string "inline"));
        ("x", Tree.dirent_file leaf_sha);
      ]
  in
  let objects = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  ( {
      Snapshot.s_service = "kvs";
      s_root = root;
      s_version = 1;
      s_epoch = 0;
      s_composite = None;
      s_objects = List.sort (fun (a, _) (b, _) -> String.compare a b) objects;
    },
    leaf )

let lookup_through snap key =
  let fetch sha =
    List.assoc_opt (Sha1.to_hex sha) snap.Snapshot.s_objects
  in
  Tree.lookup ~fetch ~root:snap.Snapshot.s_root ~key ()

let test_tree_roundtrip () =
  let snap, leaf = build_store () in
  expect_ok "verify" (Result.map_error Snapshot.error_to_string (Snapshot.verify snap));
  let decoded =
    expect_ok "decode"
      (Result.map_error Snapshot.error_to_string (Snapshot.decode (Snapshot.encode snap)))
  in
  check Alcotest.string "encode is a fixed point" (Snapshot.encode snap)
    (Snapshot.encode decoded);
  check Alcotest.bool "root preserved" true
    (Sha1.equal snap.Snapshot.s_root decoded.Snapshot.s_root);
  check Alcotest.int "version preserved" snap.Snapshot.s_version decoded.Snapshot.s_version;
  (* Interior directories and leaves both resolve through the decoded
     object set alone. *)
  (match lookup_through decoded "a.b.c" with
  | Tree.Found v -> check (Alcotest.testable Json.pp Json.equal) "leaf" leaf v
  | _ -> Alcotest.fail "a.b.c did not resolve from decoded store");
  (match lookup_through decoded "a.b.d" with
  | Tree.Found v -> check (Alcotest.testable Json.pp Json.equal) "inline" (Json.int 42) v
  | _ -> Alcotest.fail "a.b.d did not resolve from decoded store");
  match lookup_through decoded "a.nope" with
  | Tree.No_key -> ()
  | _ -> Alcotest.fail "phantom key resolved"

let test_rehash_detects_tamper () =
  let snap, _ = build_store () in
  let tampered =
    {
      snap with
      Snapshot.s_objects =
        (match snap.Snapshot.s_objects with
        | (sha, _) :: rest -> (sha, Json.string "swapped") :: rest
        | [] -> assert false);
    }
  in
  match Snapshot.verify tampered with
  | Error (Snapshot.Corrupt_object _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Snapshot.error_to_string e)
  | Ok () -> Alcotest.fail "tampered object passed verification"

let test_missing_root () =
  let snap, _ = build_store () in
  let orphan = { snap with Snapshot.s_root = Sha1.digest_string "nowhere" } in
  match Snapshot.verify orphan with
  | Error (Snapshot.Missing_root _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Snapshot.error_to_string e)
  | Ok () -> Alcotest.fail "unresolvable root passed verification"

let test_truncation () =
  let snap, _ = build_store () in
  let s = Snapshot.encode snap in
  (* Every proper prefix must decode to a structured error. *)
  List.iter
    (fun frac ->
      let cut = String.length s * frac / 10 in
      match Snapshot.decode (String.sub s 0 cut) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "prefix of %d bytes decoded as a full store" cut)
    [ 1; 3; 5; 7; 9 ]

let corrupt_byte_prop =
  QCheck.Test.make ~count:300
    ~name:"one flipped byte decodes to a structured error, never a crash"
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 255))
    (fun (pos, delta) ->
      let snap, _ = build_store () in
      let s = Bytes.of_string (Snapshot.encode snap) in
      let i = pos mod Bytes.length s in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor delta));
      match Snapshot.decode (Bytes.to_string s) with
      | Error _ -> true
      | Ok _ -> QCheck.Test.fail_reportf "flip at %d (xor %d) still decoded" i delta
      | exception e ->
        QCheck.Test.fail_reportf "flip at %d (xor %d) raised %s" i delta
          (Printexc.to_string e))

(* --- Manifests -------------------------------------------------------------- *)

let test_manifest_roundtrip () =
  let m =
    { Wexec.m_job = "j1"; m_epoch = 3; m_version = 17; m_root = String.make 40 'a' }
  in
  (match Wexec.manifest_of_json (Wexec.manifest_to_json m) with
  | Some m' -> check Alcotest.bool "round trip" true (m = m')
  | None -> Alcotest.fail "manifest did not round-trip");
  (match Wexec.manifest_of_json Json.null with
  | None -> ()
  | Some _ -> Alcotest.fail "null parsed as a manifest");
  match Wexec.manifest_of_json (Json.obj [ ("job", Json.string "j") ]) with
  | None -> ()
  | Some _ -> Alcotest.fail "partial object parsed as a manifest"

(* --- Wexec lifecycle edges -------------------------------------------------- *)

(* A small center with wexec loaded and metrics attached, plus a ledger
   of which rank executed how many task bodies to completion. *)
let wexec_rig ~size =
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout:2 ~size () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Flux_modules.Barrier.load sess () : Flux_modules.Barrier.t array);
  let wx = Wexec.load sess () in
  let metrics = Metrics.create () in
  Wexec.set_metrics_all wx metrics;
  let execs = Array.make size 0 in
  (eng, sess, metrics, execs)

let counter m name = Metrics.counter_total m ~name

let test_die_before_ack () =
  (* A worker dies mid-task: the master must death-account its share
     exactly once, the job must still complete (with the failure), and
     the killed task body must never reach its final statement. *)
  let eng, sess, metrics, execs = wexec_rig ~size:4 in
  Wexec.register_program "life.slow" (fun ctx ->
      Proc.sleep 0.5;
      execs.(ctx.Wexec.px_rank) <- execs.(ctx.Wexec.px_rank) + 1);
  let result = ref None in
  ignore
    (Proc.spawn eng (fun () ->
         let api = Api.connect sess ~rank:0 in
         result :=
           Some (Wexec.run api ~jobid:"j-die" ~prog:"life.slow" ~ranks:[ 1; 3 ] ()))
      : Proc.pid);
  ignore
    (Proc.spawn eng (fun () ->
         Proc.sleep 0.1;
         Session.mark_down sess 3;
         Proc.sleep 0.5;
         Session.mark_up sess 3)
      : Proc.pid);
  Engine.run eng;
  (match !result with
  | Some (Ok c) ->
    check Alcotest.int "both tasks accounted" 2 c.Wexec.c_ntasks;
    check Alcotest.int "the dead rank's task failed" 1 c.Wexec.c_failed
  | Some (Error e) -> Alcotest.failf "run failed outright: %s" e
  | None -> Alcotest.fail "run never returned");
  check Alcotest.int "survivor executed" 1 execs.(1);
  check Alcotest.int "dead rank never finished its body" 0 execs.(3);
  check Alcotest.int "death-accounted exactly once" 1
    (counter metrics "wexec.tasks.death_accounted");
  check Alcotest.int "job completed exactly once" 1 (counter metrics "wexec.jobs.completed")

let test_no_zombie_after_revival () =
  (* Regression for the event-backlog zombie: a rank that is down at
     launch gets death-accounted immediately, but the wexec.exec event
     sits in the global log — on revival the backlog replays and, with
     no teardown, the revived rank would execute side effects for a job
     whose failure was acked (and whose work was requeued) long ago.
     The replayed wexec.complete must kill the replayed launch in the
     same engine step. *)
  let eng, sess, metrics, execs = wexec_rig ~size:4 in
  Wexec.register_program "life.tiny" (fun ctx ->
      Proc.sleep 0.05;
      execs.(ctx.Wexec.px_rank) <- execs.(ctx.Wexec.px_rank) + 1);
  let result = ref None in
  ignore
    (Proc.spawn eng (fun () ->
         Session.mark_down sess 3;
         Proc.sleep 0.05;
         let api = Api.connect sess ~rank:0 in
         result :=
           Some (Wexec.run api ~jobid:"j-zombie" ~prog:"life.tiny" ~ranks:[ 1; 3 ] ());
         (* Job is over (rank 3 death-accounted). Now revive: the
            backlog replay must not resurrect rank 3's task. *)
         Proc.sleep 0.2;
         Session.mark_up sess 3;
         Proc.sleep 1.0)
      : Proc.pid);
  Engine.run eng;
  (match !result with
  | Some (Ok c) -> check Alcotest.int "dead-at-launch share failed" 1 c.Wexec.c_failed
  | Some (Error e) -> Alcotest.failf "run failed outright: %s" e
  | None -> Alcotest.fail "run never returned");
  check Alcotest.int "live rank executed" 1 execs.(1);
  check Alcotest.int "revived rank executed nothing" 0 execs.(3);
  check Alcotest.int "replayed launch was torn down" 1
    (counter metrics "wexec.tasks.stale_killed")

let test_duplicate_done_idempotent () =
  (* Completion accounting must be idempotent per rank: a duplicate (or
     forged) wexec.done for a rank already at its per-rank quota is
     clamped to zero during the run and ignored entirely after it. *)
  let eng, sess, metrics, execs = wexec_rig ~size:4 in
  Wexec.register_program "life.quick" (fun ctx ->
      Proc.sleep 0.2;
      execs.(ctx.Wexec.px_rank) <- execs.(ctx.Wexec.px_rank) + 1);
  let forged r =
    Json.obj
      [
        ("jobid", Json.string "j-dup");
        ("count", Json.int 1);
        ("failed", Json.int 1);
        ("rank", Json.int r);
      ]
  in
  let result = ref None in
  ignore
    (Proc.spawn eng (fun () ->
         let api = Api.connect sess ~rank:0 in
         result :=
           Some (Wexec.run api ~jobid:"j-dup" ~prog:"life.quick" ~ranks:[ 1; 2 ] ()))
      : Proc.pid);
  ignore
    (Proc.spawn eng (fun () ->
         let api = Api.connect sess ~rank:2 in
         (* Mid-run: rank 2 has not reported yet; the forged failure
            claims its quota. The real report must then be clamped, not
            double-counted. *)
         Proc.sleep 0.1;
         (match Api.rpc api ~topic:"wexec.done" (forged 2) with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "mid-run duplicate rejected: %s" e);
         (* Post-completion: the job is gone from the master's table;
            the stale report must be ignored without error. *)
         Proc.sleep 0.5;
         match Api.rpc api ~topic:"wexec.done" (forged 1) with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "post-run duplicate rejected: %s" e)
      : Proc.pid);
  Engine.run eng;
  (match !result with
  | Some (Ok c) ->
    check Alcotest.int "totals reach exactly ntasks" 2 c.Wexec.c_ntasks;
    (* The forged failure won rank 2's quota slot; the real success was
       clamped. What matters is the totals are exact, not inflated. *)
    check Alcotest.int "failures never exceed the forgery" 1 c.Wexec.c_failed
  | Some (Error e) -> Alcotest.failf "run failed outright: %s" e
  | None -> Alcotest.fail "run never returned");
  check Alcotest.int "both bodies still executed" 2 (execs.(1) + execs.(2));
  check Alcotest.int "job completed exactly once" 1 (counter metrics "wexec.jobs.completed")

let test_requeue_resumes_from_manifest () =
  (* Death mid-epoch, then a requeue of the same logical job: the second
     attempt must find the first attempt's newest durable manifest and
     resume past it, interleaving the wexec failure path with the
     checkpoint machinery. *)
  let eng, sess, metrics, execs = wexec_rig ~size:4 in
  ignore metrics;
  let resumes = ref [] in
  let epochs_done = ref [] in
  Wexec.register_program "life.ckpt" (fun ctx ->
      let resume =
        match Wexec.newest_manifest ctx.Wexec.px_kvs ~jobid:ctx.Wexec.px_jobid ~max_epoch:2 with
        | Some m -> m.Wexec.m_epoch
        | None -> 0
      in
      if ctx.Wexec.px_global_index = 0 then resumes := resume :: !resumes;
      for e = resume + 1 to 2 do
        Proc.sleep 0.2;
        match Wexec.checkpoint ~timeout:1.0 ctx ~epoch:e with
        | Ok _ ->
          if ctx.Wexec.px_global_index = 0 then epochs_done := e :: !epochs_done
        | Error er -> raise (Wexec.Task_failure er)
      done;
      execs.(ctx.Wexec.px_rank) <- execs.(ctx.Wexec.px_rank) + 1);
  let first = ref None and second = ref None in
  ignore
    (Proc.spawn eng (fun () ->
         let api = Api.connect sess ~rank:0 in
         first := Some (Wexec.run api ~jobid:"j-rq" ~prog:"life.ckpt" ~ranks:[ 1; 2 ] ());
         (* The worker died mid-epoch-2; requeue the same logical job
            once the rank is back. *)
         Proc.sleep 0.5;
         second := Some (Wexec.run api ~jobid:"j-rq" ~prog:"life.ckpt" ~ranks:[ 1; 2 ] ()))
      : Proc.pid);
  ignore
    (Proc.spawn eng (fun () ->
         (* Epoch 1 fences at ~0.2; strike during epoch 2's work phase,
            then revive well before the requeue. *)
         Proc.sleep 0.3;
         Session.mark_down sess 2;
         Proc.sleep 0.3;
         Session.mark_up sess 2)
      : Proc.pid);
  Engine.run eng;
  (match !first with
  | Some (Ok c) -> check Alcotest.bool "first attempt failed tasks" true (c.Wexec.c_failed > 0)
  | Some (Error e) -> Alcotest.failf "first attempt errored: %s" e
  | None -> Alcotest.fail "first attempt never returned");
  (match !second with
  | Some (Ok c) -> check Alcotest.int "requeue completed clean" 0 c.Wexec.c_failed
  | Some (Error e) -> Alcotest.failf "requeue errored: %s" e
  | None -> Alcotest.fail "requeue never returned");
  (match List.rev !resumes with
  | [ 0; r2 ] ->
    check Alcotest.int "requeue resumed from the epoch-1 manifest" 1 r2
  | rs -> Alcotest.failf "unexpected resume trail: [%s]"
            (String.concat "; " (List.map string_of_int rs)));
  check Alcotest.bool "epoch 2 eventually checkpointed" true (List.mem 2 !epochs_done);
  (* The epoch-2 manifest from the successful attempt must verify. *)
  ignore
    (Proc.spawn eng (fun () ->
         let kvs = Client.connect sess ~rank:0 in
         match Wexec.newest_manifest kvs ~jobid:"j-rq" ~max_epoch:2 with
         | Some m -> check Alcotest.int "newest manifest is epoch 2" 2 m.Wexec.m_epoch
         | None -> Alcotest.fail "no manifest after successful requeue")
      : Proc.pid);
  Engine.run eng

(* --- Sharded snapshot/restore ---------------------------------------------- *)

let test_sharded_roundtrip () =
  let eng = Engine.create () in
  let sess =
    Session.create eng ~fanout:2 ~rank_topology:Session.Direct ~size:8 ()
  in
  let vt = Volumes.load sess ~shards:2 () in
  (* First components chosen to land one on each volume. *)
  let comp vol =
    let rec find i =
      let c = Printf.sprintf "s%d" i in
      match Volumes.volume_for_key vt c with Ok v when v = vol -> c | _ -> find (i + 1)
    in
    find 0
  in
  let keys =
    List.concat_map
      (fun vol -> List.init 3 (fun i -> Printf.sprintf "%s.k%d" (comp vol) i))
      [ 0; 1 ]
  in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Volumes.client vt ~rank:5 in
         List.iter
           (fun k -> expect_ok "put" (Volumes.put c ~key:k (Json.string ("v-" ^ k))))
           keys;
         ignore (expect_ok "commit" (Volumes.commit c) : int))
      : Proc.pid);
  Engine.run eng;
  (* One store spanning both volumes: each volume master's snapshot,
     objects unioned (content addressing dedups them), and a composite
     record naming each volume's root, the record the cross-shard fence
     publishes. *)
  let master vt vol = Volumes.instance vt ~volume:vol ~rank:(Volumes.master_rank vt vol) in
  let per = List.map (fun vol -> expect_ok "snapshot" (Kvs.snapshot (master vt vol))) [ 0; 1 ] in
  let seen = Hashtbl.create 64 in
  let objects =
    List.filter
      (fun (h, _) ->
        (not (Hashtbl.mem seen h))
        &&
        (Hashtbl.replace seen h ();
         true))
      (List.concat_map (fun (s : Snapshot.t) -> s.Snapshot.s_objects) per)
  in
  let roots =
    Array.of_list
      (List.mapi
         (fun vol (s : Snapshot.t) ->
           {
             Flux_kvs.Proto.ri_epoch = s.Snapshot.s_epoch;
             ri_master = Volumes.master_rank vt vol;
             ri_version = s.Snapshot.s_version;
             ri_root = s.Snapshot.s_root;
           })
         per)
  in
  let snap =
    {
      Snapshot.s_service = "kvsx";
      s_root = Tree.empty_dir_sha;
      s_version = List.fold_left (fun a (s : Snapshot.t) -> max a s.Snapshot.s_version) 0 per;
      s_epoch = List.fold_left (fun a (s : Snapshot.t) -> max a s.Snapshot.s_epoch) 0 per;
      s_composite = Some { Flux_kvs.Proto.cx_name = "snapshot"; cx_epoch = 0; cx_roots = roots };
      s_objects = objects;
    }
  in
  expect_ok "verify" (Result.map_error Snapshot.error_to_string (Snapshot.verify snap));
  let decoded =
    expect_ok "decode"
      (Result.map_error Snapshot.error_to_string (Snapshot.decode (Snapshot.encode snap)))
  in
  (match decoded.Snapshot.s_composite with
  | Some cx -> check Alcotest.int "composite spans both volumes" 2 (Array.length cx.Flux_kvs.Proto.cx_roots)
  | None -> Alcotest.fail "decoded store lacks its composite record");
  (* Restore each volume's master of a brand-new sharded session from
     its composite member root and read every key back. *)
  let eng2 = Engine.create () in
  let sess2 =
    Session.create eng2 ~fanout:2 ~rank_topology:Session.Direct ~size:8 ()
  in
  let vt2 = Volumes.load sess2 ~shards:2 () in
  (match decoded.Snapshot.s_composite with
  | None -> ()
  | Some cx ->
    Array.iteri
      (fun vol (ri : Flux_kvs.Proto.root_info) ->
        expect_ok "restore"
          (Kvs.restore (master vt2 vol)
             {
               decoded with
               Snapshot.s_root = ri.Flux_kvs.Proto.ri_root;
               s_version = ri.Flux_kvs.Proto.ri_version;
               s_epoch = ri.Flux_kvs.Proto.ri_epoch;
               s_composite = None;
             }))
      cx.Flux_kvs.Proto.cx_roots);
  ignore
    (Proc.spawn eng2 (fun () ->
         (* Wait for the restored setroots to reach rank 3's slaves
            before reading through them. *)
         (match decoded.Snapshot.s_composite with
         | None -> ()
         | Some cx ->
           Array.iteri
             (fun vol (ri : Flux_kvs.Proto.root_info) ->
               while
                 Kvs.version (Volumes.instance vt2 ~volume:vol ~rank:3)
                 < ri.Flux_kvs.Proto.ri_version
               do
                 Proc.sleep 0.005
               done)
             cx.Flux_kvs.Proto.cx_roots);
         let c = Volumes.client vt2 ~rank:3 in
         List.iter
           (fun k ->
             let v = expect_ok ("get " ^ k) (Volumes.get c ~key:k) in
             check
               (Alcotest.testable Json.pp Json.equal)
               k
               (Json.string ("v-" ^ k))
               v)
           keys)
      : Proc.pid);
  Engine.run eng2

(* --- Metrics are a function of the run ------------------------------------- *)

(* Snapshot and restore take no virtual time, so what they record may not
   depend on the host either: the same snapshot/restore run twice must
   leave the same metrics, row for row. *)
let test_snapshot_metrics_reproducible () =
  let run () =
    let eng = Engine.create () in
    let sess = Session.create eng ~fanout:2 ~size:4 () in
    let kvs = Kvs.load sess () in
    let metrics = Metrics.create () in
    Kvs.set_metrics_all kvs metrics;
    ignore
      (Proc.spawn eng (fun () ->
           let c = Client.connect sess ~rank:3 in
           for i = 0 to 299 do
             expect_ok "put" (Client.put c ~key:(Printf.sprintf "d%d.k%d" (i mod 7) i) (Json.int i))
           done;
           ignore (expect_ok "commit" (Client.commit c) : int))
        : Proc.pid);
    Engine.run eng;
    for _ = 1 to 3 do
      let snap = expect_ok "snapshot" (Kvs.snapshot kvs.(0)) in
      expect_ok "restore" (Kvs.restore kvs.(0) snap);
      Engine.run eng
    done;
    check Alcotest.int "snapshots counted" 3 (counter metrics "ckpt.snapshot");
    check Alcotest.int "restores counted" 3 (counter metrics "ckpt.restore");
    Metrics.to_csv metrics
  in
  let first = run () in
  check Alcotest.string "same run, same metrics" first (run ())

let () =
  Alcotest.run "ckpt"
    [
      ( "schedules",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "seed %d: %s, 0 violations" seed
                 (kind_name (kind_of_seed seed)))
              `Quick (test_schedule seed))
          seeds
        @ [
            Alcotest.test_case "node-mid-job deterministic" `Quick
              (test_deterministic Ckpt.Node_mid_job);
            Alcotest.test_case "master-mid-snapshot deterministic" `Quick
              (test_deterministic Ckpt.Master_mid_snapshot);
            Alcotest.test_case "ckpt-fence-window deterministic" `Quick
              (test_deterministic Ckpt.Between_ckpt_and_fence);
            Alcotest.test_case "requeue path exercised" `Quick test_requeue_happens;
          ] );
      ( "store",
        [
          Alcotest.test_case "interior+leaf round-trip" `Quick test_tree_roundtrip;
          Alcotest.test_case "re-hash catches tampering" `Quick test_rehash_detects_tamper;
          Alcotest.test_case "missing root detected" `Quick test_missing_root;
          Alcotest.test_case "truncation detected" `Quick test_truncation;
          QCheck_alcotest.to_alcotest corrupt_byte_prop;
        ] );
      ( "manifests",
        [ Alcotest.test_case "json round-trip is total" `Quick test_manifest_roundtrip ] );
      ( "lifecycle",
        [
          Alcotest.test_case "rank dies before completion ack" `Quick test_die_before_ack;
          Alcotest.test_case "no zombie execution after revival" `Quick
            test_no_zombie_after_revival;
          Alcotest.test_case "duplicate completion reports are idempotent" `Quick
            test_duplicate_done_idempotent;
          Alcotest.test_case "requeue resumes from the newest manifest" `Quick
            test_requeue_resumes_from_manifest;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "snapshot/restore round-trip across volumes" `Quick
            test_sharded_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "snapshot/restore metrics reproducible" `Quick
            test_snapshot_metrics_reproducible;
        ] );
    ]
