(* The chaos harness and targeted failover scenarios: the paper's
   consistency guarantees (Vogels' taxonomy — monotonic reads,
   read-your-writes, causal consistency) plus fence atomicity must hold
   while ranks, including the KVS master, are killed and revived under
   seeded randomized schedules. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Chaos = Flux_harness.Chaos

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let expect_ok label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label e

(* --- Deterministic failover scenarios ------------------------------------ *)

let test_master_failover_mid_commit () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  let kvs = Kvs.load sess ~config:Kvs.replicated_config () in
  let versions = ref [] in
  let commit_errors = ref 0 in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:13 in
         for i = 1 to 6 do
           expect_ok "put" (Client.put c ~key:(Printf.sprintf "mf.k%d" i) (Json.int i));
           match Client.commit c with
           | Ok v -> versions := v :: !versions
           | Error _ ->
             incr commit_errors;
             Client.abort c
         done)
      : Proc.pid);
  (* Strike the master while the commit stream is in flight. *)
  ignore (Engine.schedule eng ~delay:0.002 (fun () -> Session.mark_down sess 0) : Engine.handle);
  Engine.run eng;
  check bool "commits succeeded after failover" true (List.length !versions >= 3);
  (match !versions with
  | [] -> ()
  | vs ->
    let rec mono = function
      | a :: (b :: _ as rest) -> a > b && mono rest
      | _ -> true
    in
    (* [versions] is reversed: newest first, strictly decreasing. *)
    check bool "acked versions strictly monotonic" true (mono vs));
  check bool "lowest live rank took over" true (Kvs.is_master kvs.(1));
  check bool "takeover bumped the epoch" true (Kvs.epoch kvs.(1) >= 1);
  (* Every acked commit survived the master loss. *)
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:5 in
         for i = 1 to 6 - !commit_errors do
           check bool
             (Printf.sprintf "mf.k%d readable after failover" i)
             true
             (match Client.get c ~key:(Printf.sprintf "mf.k%d" i) with
             | Ok v -> Json.equal v (Json.int i)
             | Error _ -> false)
         done)
      : Proc.pid);
  Engine.run eng

let test_rejoin_reaches_current_version () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  let kvs = Kvs.load sess ~config:Kvs.replicated_config () in
  let commit_n c n =
    for i = 1 to n do
      expect_ok "put" (Client.put c ~key:(Printf.sprintf "rj.k%d" i) (Json.int i));
      ignore (expect_ok "commit" (Client.commit c) : int)
    done
  in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:13 in
         commit_n c 3)
      : Proc.pid);
  Engine.run eng;
  Session.mark_down sess 5;
  Engine.run eng;
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:13 in
         for i = 4 to 8 do
           expect_ok "put" (Client.put c ~key:(Printf.sprintf "rj.k%d" i) (Json.int i));
           ignore (expect_ok "commit" (Client.commit c) : int)
         done)
      : Proc.pid);
  Engine.run eng;
  let current = Kvs.version kvs.(0) in
  check bool "writes advanced the version" true (current >= 8);
  check bool "dead rank is behind" true (Kvs.version kvs.(5) < current);
  Session.mark_up sess 5;
  Engine.run eng;
  (* Acceptance: the revived rank reaches the current version... *)
  check int "revived rank caught up" current (Kvs.version kvs.(5));
  check int "revived rank at current epoch" (Kvs.epoch kvs.(0)) (Kvs.epoch kvs.(5));
  (* ...and serves reads (rank 11 routes through rank 5). *)
  let loads_before = Kvs.loads_issued kvs.(5) in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:11 in
         for i = 1 to 8 do
           check bool
             (Printf.sprintf "rj.k%d readable via rejoined rank" i)
             true
             (Json.equal (expect_ok "get" (Client.get c ~key:(Printf.sprintf "rj.k%d" i))) (Json.int i))
         done)
      : Proc.pid);
  Engine.run eng;
  ignore loads_before

let test_fence_atomicity_under_master_kill () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  let _kvs = Kvs.load sess ~config:Kvs.replicated_config () in
  let bodies = [ 9; 11; 13 ] in
  let outcomes = ref [] in
  List.iter
    (fun r ->
      ignore
        (Proc.spawn eng (fun () ->
             let c = Client.connect sess ~rank:r in
             expect_ok "put" (Client.put c ~key:(Printf.sprintf "fa.c%d" r) (Json.int r));
             let res = Client.fence ~timeout:6.0 c ~name:"atomic" ~nprocs:3 in
             outcomes := (r, res) :: !outcomes;
             if Result.is_error res then Client.abort c)
          : Proc.pid))
    bodies;
  ignore (Engine.schedule eng ~delay:0.001 (fun () -> Session.mark_down sess 0) : Engine.handle);
  Engine.run eng;
  check int "all participants released" 3 (List.length !outcomes);
  (* All-or-nothing: however the fence resolved, either every
     contribution is visible or none is. *)
  let visible = ref 0 in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:11 in
         List.iter
           (fun r ->
             match Client.get c ~key:(Printf.sprintf "fa.c%d" r) with
             | Ok v when Json.equal v (Json.int r) -> incr visible
             | Ok _ | Error _ -> ())
           bodies)
      : Proc.pid);
  Engine.run eng;
  check bool
    (Printf.sprintf "fence applied atomically (visible=%d)" !visible)
    true
    (!visible = 0 || !visible = 3);
  (* If any participant got an ack, the fence completed everywhere. *)
  if List.exists (fun (_, res) -> Result.is_ok res) !outcomes then
    check int "acked fence fully visible" 3 !visible

(* --- Seeded randomized schedules ----------------------------------------- *)

let n_schedules = 24

let run_schedule seed =
  Chaos.run { Chaos.default with Chaos.seed }

let test_chaos_schedule seed () =
  let r = run_schedule seed in
  List.iter (fun v -> Printf.printf "seed %d violation: %s\n%!" seed v) r.Chaos.violations;
  check int (Printf.sprintf "seed %d: no consistency violations" seed) 0
    (List.length r.Chaos.violations);
  check bool
    (Printf.sprintf "seed %d: master killed mid-run (got %d)" seed r.Chaos.master_kills)
    true (r.Chaos.master_kills >= 1);
  check bool
    (Printf.sprintf "seed %d: workload made progress (%d commits)" seed r.Chaos.commits_ok)
    true
    (r.Chaos.commits_ok > 0);
  check bool "keys verified in final phase" true (r.Chaos.keys_checked > 0);
  check bool "takeover happened" true (r.Chaos.takeovers >= 1)

let test_chaos_deterministic () =
  (* Same seed, same schedule: the whole report must reproduce. *)
  let a = run_schedule 42 and b = run_schedule 42 in
  check int "commits" a.Chaos.commits_ok b.Chaos.commits_ok;
  check int "fences" a.Chaos.fences_ok b.Chaos.fences_ok;
  check int "kills" a.Chaos.kills b.Chaos.kills;
  check int "takeovers" a.Chaos.takeovers b.Chaos.takeovers;
  check int "final version" a.Chaos.final_version b.Chaos.final_version

let test_rejects_no_clients () =
  Alcotest.check_raises "no clients is not a vacuous pass"
    (Invalid_argument "Chaos.run: no client ranks") (fun () ->
      ignore (Chaos.run { Chaos.default with Chaos.clients = [] } : Chaos.report))

let () =
  let schedules =
    List.init n_schedules (fun i ->
        let seed = 1000 + (7 * i) in
        Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (test_chaos_schedule seed))
  in
  Alcotest.run "chaos"
    [
      ( "failover",
        [
          Alcotest.test_case "master killed mid-commit" `Quick test_master_failover_mid_commit;
          Alcotest.test_case "rejoin reaches current version" `Quick
            test_rejoin_reaches_current_version;
          Alcotest.test_case "fence atomic under master kill" `Quick
            test_fence_atomicity_under_master_kill;
          (* At seed 348 a takeover elects a master whose store lacks a
             directory object of its own root. Its next apply must fetch
             the object from a peer and go on, not raise out of the
             engine. *)
          Alcotest.test_case "seed 348: master faults in a missing root directory" `Quick
            (test_chaos_schedule 348);
          (* At seeds 58 and 318 a rank revives believing it still leads
             and the acting master then dies: every other rank elects the
             rejoiner, which must take over although the death is not of
             the master it believed in. At seed 2372 the dying rank was
             mid-takeover, and its round must not promote it once it is
             down. Each ended with no master before. *)
          Alcotest.test_case "seed 58: a rejoiner takes over after any death" `Quick
            (test_chaos_schedule 58);
          Alcotest.test_case "seed 318: a rejoiner takes over after any death" `Quick
            (test_chaos_schedule 318);
          Alcotest.test_case "seed 2372: a takeover marked down does not promote" `Quick
            (test_chaos_schedule 2372);
          (* At seed 10 rank 0 dies, rank 1 takes over both the overlay
             root and mastership, and rank 0 revives. The overlay root
             must stay with rank 1: taking it back left rank 0 the root
             of a tree whose master it was not, stuck at an old version. *)
          Alcotest.test_case "seed 10: a revived rank 0 does not take the root back" `Quick
            (test_chaos_schedule 10);
        ] );
      ("determinism", [ Alcotest.test_case "same seed, same report" `Quick test_chaos_deterministic ]);
      ("validate", [ Alcotest.test_case "rejects no clients" `Quick test_rejects_no_clients ]);
      ("schedules", schedules);
    ]
