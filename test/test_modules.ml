(* Tests for the Table I comms modules: hb, live, log, mon, group,
   barrier, wexec, resvc. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Ivar = Flux_sim.Ivar
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Hb = Flux_modules.Hb
module Live = Flux_modules.Live
module Log_mod = Flux_modules.Log_mod
module Mon = Flux_modules.Mon
module Group = Flux_modules.Group
module Barrier = Flux_modules.Barrier
module Wexec = Flux_modules.Wexec
module Resvc = Flux_modules.Resvc

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let expect_ok label = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" label e

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

(* --- barrier ------------------------------------------------------------ *)

let test_barrier_releases_all_at_once () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  ignore (Barrier.load sess () : Barrier.t array);
  let release_times = ref [] in
  let bodies =
    List.map
      (fun r () ->
        let api = Api.connect sess ~rank:r in
        (* Stagger arrival so the last arrival gates everyone. *)
        Proc.sleep (0.001 *. float_of_int r);
        expect_ok "enter" (Barrier.enter api ~name:"b0" ~nprocs:15);
        release_times := Engine.now eng :: !release_times)
      (List.init 15 Fun.id)
  in
  run_clients eng bodies;
  check int "all released" 15 (List.length !release_times);
  let mn = List.fold_left Float.min infinity !release_times in
  let mx = List.fold_left Float.max neg_infinity !release_times in
  check bool "no release before last arrival" true (mn >= 0.001 *. 14.0);
  check bool "releases clustered" true (mx -. mn < 0.01)

let test_barrier_multiple_sequential () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  ignore (Barrier.load sess () : Barrier.t array);
  let phase_of = Array.make 7 0 in
  let bodies =
    List.map
      (fun r () ->
        let api = Api.connect sess ~rank:r in
        for phase = 1 to 3 do
          expect_ok "enter" (Barrier.enter api ~name:(Printf.sprintf "ph%d" phase) ~nprocs:7);
          phase_of.(r) <- phase
        done)
      (List.init 7 Fun.id)
  in
  run_clients eng bodies;
  Array.iteri (fun r p -> check int (Printf.sprintf "rank %d finished" r) 3 p) phase_of

let test_barrier_two_procs_per_node () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:4 () in
  ignore (Barrier.load sess () : Barrier.t array);
  let done_count = ref 0 in
  let bodies =
    List.concat_map
      (fun r ->
        List.map
          (fun _ () ->
            let api = Api.connect sess ~rank:r in
            expect_ok "enter" (Barrier.enter api ~name:"b2" ~nprocs:8);
            incr done_count)
          [ 0; 1 ])
      (List.init 4 Fun.id)
  in
  run_clients eng bodies;
  check int "8 released" 8 !done_count

(* The barrier's root follows the overlay root: with rank 0 dead and
   marked down, rank 1 roots the tree and completes the barrier. *)
let test_barrier_rank0_down () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  ignore (Barrier.load sess () : Barrier.t array);
  Session.crash sess 0;
  Session.mark_down sess 0;
  let released = ref 0 in
  let bodies =
    List.map
      (fun r () ->
        let api = Api.connect sess ~rank:r in
        expect_ok "enter" (Barrier.enter api ~name:"b-down" ~nprocs:6);
        incr released)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  run_clients eng bodies;
  check int "all six released" 6 !released

(* Rank 6 enters 40 s late, past the 30 s deadline of the aggregates
   the interior ranks forwarded, so those are retransmitted under their
   original ids. The root must count each aggregate once: nobody leaves
   before the last participant has entered. *)
let test_barrier_late_entrant () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  ignore (Barrier.load sess () : Barrier.t array);
  let release_times = ref [] in
  let bodies =
    List.map
      (fun r () ->
        let api = Api.connect sess ~rank:r in
        if r = 6 then Proc.sleep 40.0;
        expect_ok "enter" (Barrier.enter api ~name:"late" ~nprocs:7);
        release_times := Engine.now eng :: !release_times)
      (List.init 7 Fun.id)
  in
  run_clients eng bodies;
  check int "all released" 7 (List.length !release_times);
  check bool "aggregates were retransmitted" true (Session.rpc_retries sess > 0);
  List.iter
    (fun t -> check bool "released after the last entrant" true (t >= 40.0))
    !release_times

(* --- hb ------------------------------------------------------------------- *)

let test_hb_epochs_reach_all_ranks () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let hb = Hb.load sess ~period:0.05 () in
  ignore (Engine.schedule eng ~delay:0.52 (fun () -> Hb.stop hb));
  Engine.run eng;
  Array.iteri
    (fun r t ->
      check bool (Printf.sprintf "rank %d saw ~10 epochs" r) true (abs (Hb.epoch t - 10) <= 1))
    hb

let test_hb_callbacks () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:3 () in
  let hb = Hb.load sess ~period:0.1 () in
  let pulses = ref [] in
  Hb.on_pulse hb.(2) (fun e -> pulses := e :: !pulses);
  ignore (Engine.schedule eng ~delay:0.35 (fun () -> Hb.stop hb));
  Engine.run eng;
  check (Alcotest.list int) "epochs in order" [ 1; 2; 3 ] (List.rev !pulses)

(* --- live ------------------------------------------------------------------ *)

let test_live_detects_dead_node () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  let hb = Hb.load sess ~period:0.05 () in
  let live = Live.load sess ~hb ~max_missed:3 () in
  (* Crash rank 6 silently at t=0.3; its parent (rank 2) must notice and
     the session must rewire. *)
  ignore (Engine.schedule eng ~delay:0.3 (fun () -> Session.crash sess 6));
  ignore (Engine.schedule eng ~delay:1.2 (fun () -> Hb.stop hb));
  Engine.run eng;
  check bool "declared down by parent" true (List.mem 6 (Live.declared_down live.(2)));
  check bool "session marked down" true (Session.is_down sess 6);
  (* Children of 6 (ranks 13, 14) reattached to rank 2. *)
  check
    (Alcotest.option int)
    "rank 13 adopted" (Some 2)
    (Session.tree_parent (Session.broker sess 13));
  check bool "hellos flowed" true (Live.hellos_received live.(0) > 0)

let test_live_no_false_positives_after_heal () =
  (* When an interior broker dies, its orphaned subtree misses
     heartbeats until the overlays rewire and the event backlog replays
     in a burst. The replay must NOT make the orphans declare their own
     healthy children dead (regression: epoch clocks restart after a
     replay burst). *)
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  let hb = Hb.load sess ~period:0.05 () in
  let live = Live.load sess ~hb ~max_missed:3 () in
  ignore (Engine.schedule eng ~delay:0.3 (fun () -> Session.crash sess 2) : Engine.handle);
  ignore (Engine.schedule eng ~delay:2.0 (fun () -> Hb.stop hb) : Engine.handle);
  Engine.run eng;
  check bool "rank 2 detected" true (Session.is_down sess 2);
  (* Ranks 5/6 (children of 2) must not have declared 11..14. *)
  let false_positives =
    List.concat_map (fun r -> Live.declared_down live.(r)) [ 5; 6 ]
  in
  check (Alcotest.list int) "no false positives in the orphaned subtree" [] false_positives;
  check int "only one rank down" 14 (List.length (Session.alive_ranks sess))

let test_live_no_false_positives () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let hb = Hb.load sess ~period:0.05 () in
  let live = Live.load sess ~hb () in
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> Hb.stop hb));
  Engine.run eng;
  Array.iter (fun t -> check int "nothing declared down" 0 (List.length (Live.declared_down t))) live

(* --- log --------------------------------------------------------------------- *)

let test_log_reduction_and_root_file () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let logm = Log_mod.load sess () in
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:5 in
        (* Three identical warnings: reduced to one entry, count 3. *)
        Log_mod.log api ~level:Log_mod.Warn "disk full";
        Log_mod.log api ~level:Log_mod.Warn "disk full";
        Log_mod.log api ~level:Log_mod.Warn "disk full";
        Log_mod.log api ~level:Log_mod.Info "booted";
        (* Debug stays local. *)
        Log_mod.log api ~level:Log_mod.Debug "noise";
        Proc.sleep 0.2);
    ];
  let entries = Log_mod.root_log logm.(0) in
  let find text = List.find_opt (fun e -> e.Log_mod.e_text = text) entries in
  (match find "disk full" with
  | Some e -> check int "duplicates folded" 3 e.Log_mod.e_count
  | None -> Alcotest.fail "warning missing from root log");
  check bool "info forwarded" true (find "booted" <> None);
  check bool "debug not forwarded" true (find "noise" = None);
  (* The debug line is still in the local circular buffer. *)
  check bool "debug in local buffer" true
    (List.exists (fun e -> e.Log_mod.e_text = "noise") (Log_mod.local_buffer logm.(5)))

let test_log_fault_dump () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let logm = Log_mod.load sess () in
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:6 in
        Log_mod.log api ~level:Log_mod.Debug "debug context 1";
        Log_mod.log api ~level:Log_mod.Debug "debug context 2";
        Proc.sleep 0.1;
        Log_mod.dump_buffers api;
        Proc.sleep 0.2);
    ];
  let entries = Log_mod.root_log logm.(0) in
  check bool "fault dump delivered debug context" true
    (List.exists (fun e -> e.Log_mod.e_text = "debug context 1") entries
    && List.exists (fun e -> e.Log_mod.e_text = "debug context 2") entries)

(* --- mon ----------------------------------------------------------------------- *)

let test_mon_sampling_reduced_into_kvs () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  ignore (Kvs.load sess () : Kvs.t array);
  let hb = Hb.load sess ~period:0.05 () in
  let mon = Mon.load sess ~hb () in
  Mon.register_sampler "loadavg" (fun ~rank ~epoch:_ -> float_of_int rank);
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:3 in
        expect_ok "activate" (Mon.activate api ~script:"loadavg");
        Proc.sleep 0.6;
        Hb.stop hb);
    ];
  (match Mon.latest_aggregate mon.(0) with
  | Some (_, s) ->
    check int "all ranks sampled" 7 s.Mon.s_count;
    check (Alcotest.float 1e-9) "min" 0.0 s.Mon.s_min;
    check (Alcotest.float 1e-9) "max" 6.0 s.Mon.s_max;
    check (Alcotest.float 1e-9) "sum" 21.0 s.Mon.s_sum
  | None -> Alcotest.fail "no aggregate at root");
  check bool "samples taken on all ranks" true
    (Array.for_all (fun t -> Mon.samples_taken t > 0) mon);
  (* The aggregate is stored in the KVS. *)
  run_clients eng
    [
      (fun () ->
        let c = Client.connect sess ~rank:5 in
        let epoch, _ = Option.get (Mon.latest_aggregate mon.(0)) in
        let v =
          expect_ok "kvs get" (Client.get c ~key:(Printf.sprintf "mon.loadavg.%d" epoch))
        in
        check int "stored count" 7 (Json.to_int (Json.member "count" v)));
    ]

let test_mon_deactivate_stops_sampling () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:3 () in
  ignore (Kvs.load sess () : Kvs.t array);
  let hb = Hb.load sess ~period:0.05 () in
  let mon = Mon.load sess ~hb () in
  Mon.register_sampler "temp" (fun ~rank:_ ~epoch:_ -> 1.0);
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:1 in
        expect_ok "activate" (Mon.activate api ~script:"temp");
        Proc.sleep 0.3;
        expect_ok "deactivate" (Mon.deactivate api);
        Proc.sleep 0.05;
        let before = Mon.samples_taken mon.(1) in
        Proc.sleep 0.3;
        check int "no samples after deactivate" before (Mon.samples_taken mon.(1));
        Hb.stop hb);
    ]

(* --- group ------------------------------------------------------------------------ *)

let test_group_membership () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  ignore (Barrier.load sess () : Barrier.t array);
  ignore (Group.load sess () : Group.t array);
  run_clients eng
    [
      (fun () ->
        let a = Api.connect sess ~rank:3 in
        check int "first join" 1 (expect_ok "join" (Group.join a ~group:"g" ~tag:"p0"));
        let b = Api.connect sess ~rank:5 in
        check int "second join" 2 (expect_ok "join" (Group.join b ~group:"g" ~tag:"p0"));
        let mems = expect_ok "members" (Group.members a ~group:"g") in
        check
          (Alcotest.list (Alcotest.pair int string))
          "members in join order"
          [ (3, "p0"); (5, "p0") ]
          mems;
        check int "leave" 1 (expect_ok "leave" (Group.leave a ~group:"g" ~tag:"p0"));
        check int "size after leave" 1 (expect_ok "size" (Group.group_size b ~group:"g")));
    ]

let test_group_barrier () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  ignore (Barrier.load sess () : Barrier.t array);
  ignore (Group.load sess () : Group.t array);
  let released = ref 0 in
  let joined = Ivar.create () in
  let join_count = ref 0 in
  let bodies =
    List.map
      (fun r () ->
        let api = Api.connect sess ~rank:r in
        ignore (expect_ok "join" (Group.join api ~group:"workers" ~tag:"t"));
        incr join_count;
        if !join_count = 3 then Ivar.fill eng joined ();
        Proc.await joined;
        expect_ok "group barrier" (Group.barrier api ~group:"workers" ~name:"gb1");
        incr released)
      [ 1; 4; 6 ]
  in
  run_clients eng bodies;
  check int "all group members released" 3 !released

(* --- wexec -------------------------------------------------------------------------- *)

let () =
  Wexec.register_program "hello" (fun ctx ->
      ctx.Wexec.px_printf
        (Printf.sprintf "hello from rank %d task %d" ctx.Wexec.px_rank
           ctx.Wexec.px_global_index))

let () =
  Wexec.register_program "sleepy" (fun ctx ->
      Proc.sleep (Json.to_float (Json.member "secs" ctx.Wexec.px_args));
      ctx.Wexec.px_printf "done sleeping")

let () =
  Wexec.register_program "failing" (fun ctx ->
      if ctx.Wexec.px_global_index mod 2 = 0 then raise (Wexec.Task_failure "boom"))

let () = Wexec.register_program "forever" (fun _ -> Proc.sleep 1e9)

let test_wexec_bulk_launch_and_stdout () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Wexec.load sess () : Wexec.t array);
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:0 in
        let c =
          expect_ok "run"
            (Wexec.run api ~jobid:"job1" ~prog:"hello" ~per_rank:2 ~ranks:[ 1; 3; 5 ] ())
        in
        check int "ntasks" 6 c.Wexec.c_ntasks;
        check int "no failures" 0 c.Wexec.c_failed;
        (* Stdout was captured in the KVS. *)
        let kvs = Client.connect sess ~rank:0 in
        let out =
          expect_ok "stdout" (Client.get kvs ~key:(Wexec.job_key "job1" ^ ".3-1.stdout"))
        in
        (match out with
        | Json.String s -> check bool "has greeting" true (String.length s > 0)
        | _ -> Alcotest.fail "stdout not a string");
        let exit_code =
          expect_ok "exit" (Client.get kvs ~key:(Wexec.job_key "job1" ^ ".3-1.exit"))
        in
        check int "exit 0" 0 (Json.to_int exit_code));
    ]

let test_wexec_failures_counted () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Wexec.load sess () : Wexec.t array);
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:2 in
        let c =
          expect_ok "run"
            (Wexec.run api ~jobid:"job2" ~prog:"failing" ~per_rank:2 ~ranks:[ 0; 1 ] ())
        in
        check int "ntasks" 4 c.Wexec.c_ntasks;
        check int "half failed" 2 c.Wexec.c_failed);
    ]

let test_wexec_kill () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Wexec.load sess () : Wexec.t array);
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:0 in
        ignore
          (Engine.schedule eng ~delay:0.5 (fun () -> Wexec.kill api ~jobid:"job3")
            : Engine.handle);
        let c =
          expect_ok "run"
            (Wexec.run api ~jobid:"job3" ~prog:"forever" ~per_rank:1 ~ranks:[ 1; 2; 3 ] ())
        in
        check int "all killed tasks failed" 3 c.Wexec.c_failed;
        check bool "completed promptly after kill" true (Engine.now eng < 2.0));
    ]

let test_wexec_unknown_program () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:3 () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Wexec.load sess () : Wexec.t array);
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:0 in
        let c =
          expect_ok "run" (Wexec.run api ~jobid:"job4" ~prog:"nosuch" ~ranks:[ 1; 2 ] ())
        in
        check int "all failed" 2 c.Wexec.c_failed);
    ]

(* Nested instances give jobs dotted ids: [a.b]'s completion must not
   end [a]'s wait. *)
let test_wexec_dotted_jobid () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Wexec.load sess () : Wexec.t array);
  let api = Api.connect sess ~rank:0 in
  run_clients eng
    [
      (fun () ->
        let c =
          expect_ok "run a"
            (Wexec.run api ~jobid:"a" ~prog:"sleepy"
               ~args:(Json.obj [ ("secs", Json.float 1.0) ])
               ~ranks:[ 1; 2 ] ())
        in
        check int "a's own tasks" 2 c.Wexec.c_ntasks;
        check bool "a waited for its tasks" true (Engine.now eng >= 1.0));
      (fun () ->
        let c = expect_ok "run a.b" (Wexec.run api ~jobid:"a.b" ~prog:"hello" ~ranks:[ 3; 4; 5 ] ()) in
        check int "a.b's tasks" 3 c.Wexec.c_ntasks);
    ]

(* Once [run] returns, its wait is gone: republishing the job's
   completion costs exactly what a completion nobody waits on costs. *)
let test_wexec_wait_leaves_nothing () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:3 () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Wexec.load sess () : Wexec.t array);
  let api = Api.connect sess ~rank:0 in
  run_clients eng
    [ (fun () -> ignore (expect_ok "run" (Wexec.run api ~jobid:"job5" ~prog:"hello" ~ranks:[ 1; 2 ] ()))) ];
  let events_for topic =
    let before = Engine.events_executed eng in
    Session.publish (Session.broker sess 0) ~topic (Json.obj [ ("jobid", Json.string "none") ]);
    Engine.run eng;
    Engine.events_executed eng - before
  in
  let finished = events_for "wexec.complete.job5" in
  check int "no work left behind" (events_for "wexec.complete.job6") finished

(* --- resvc ----------------------------------------------------------------------------- *)

let test_resvc_alloc_free () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Resvc.load sess () : Resvc.t array);
  run_clients eng
    [
      (fun () ->
        let api = Api.connect sess ~rank:4 in
        check int "all free" 7 (expect_ok "info" (Resvc.free_nodes api));
        let got = expect_ok "alloc" (Resvc.alloc api ~jobid:"jA" ~nnodes:3) in
        check int "granted 3" 3 (List.length got);
        check int "4 left" 4 (expect_ok "info" (Resvc.free_nodes api));
        (* Over-allocation fails. *)
        (match Resvc.alloc api ~jobid:"jB" ~nnodes:5 with
        | Ok _ -> Alcotest.fail "expected failure"
        | Error e -> check string "error" "insufficient resources: 4 free, 5 requested" e);
        check int "freed" 3 (expect_ok "free" (Resvc.free api ~jobid:"jA"));
        check int "back to full" 7 (expect_ok "info" (Resvc.free_nodes api)));
    ]

let test_resvc_inventory_in_kvs () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:5 () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore
    (Resvc.load sess ~resources:(fun r -> { Resvc.cores = 16 + r; memory_gb = 32 }) ()
      : Resvc.t array);
  run_clients eng
    [
      (fun () ->
        let c = Client.connect sess ~rank:3 in
        Proc.sleep 0.1;
        let v = expect_ok "get" (Client.get c ~key:"resrc.rank2") in
        check int "cores" 18 (Json.to_int (Json.member "cores" v));
        check int "mem" 32 (Json.to_int (Json.member "mem_gb" v)));
    ]

let () =
  Alcotest.run "flux_modules"
    [
      ( "barrier",
        [
          Alcotest.test_case "releases all at once" `Quick test_barrier_releases_all_at_once;
          Alcotest.test_case "sequential barriers" `Quick test_barrier_multiple_sequential;
          Alcotest.test_case "two procs per node" `Quick test_barrier_two_procs_per_node;
          Alcotest.test_case "rank 0 down" `Quick test_barrier_rank0_down;
          Alcotest.test_case "late entrant, retransmitted aggregates" `Quick
            test_barrier_late_entrant;
        ] );
      ( "hb",
        [
          Alcotest.test_case "epochs reach all ranks" `Quick test_hb_epochs_reach_all_ranks;
          Alcotest.test_case "callbacks" `Quick test_hb_callbacks;
        ] );
      ( "live",
        [
          Alcotest.test_case "detects dead node" `Quick test_live_detects_dead_node;
          Alcotest.test_case "no false positives" `Quick test_live_no_false_positives;
          Alcotest.test_case "no false positives after heal" `Quick
            test_live_no_false_positives_after_heal;
        ] );
      ( "log",
        [
          Alcotest.test_case "reduction and root file" `Quick test_log_reduction_and_root_file;
          Alcotest.test_case "fault dump" `Quick test_log_fault_dump;
        ] );
      ( "mon",
        [
          Alcotest.test_case "sampling reduced into kvs" `Quick test_mon_sampling_reduced_into_kvs;
          Alcotest.test_case "deactivate stops sampling" `Quick test_mon_deactivate_stops_sampling;
        ] );
      ( "group",
        [
          Alcotest.test_case "membership" `Quick test_group_membership;
          Alcotest.test_case "group barrier" `Quick test_group_barrier;
        ] );
      ( "wexec",
        [
          Alcotest.test_case "bulk launch and stdout" `Quick test_wexec_bulk_launch_and_stdout;
          Alcotest.test_case "failures counted" `Quick test_wexec_failures_counted;
          Alcotest.test_case "kill" `Quick test_wexec_kill;
          Alcotest.test_case "unknown program" `Quick test_wexec_unknown_program;
          Alcotest.test_case "dotted job id waits for its own completion" `Quick
            test_wexec_dotted_jobid;
          Alcotest.test_case "finished wait leaves nothing" `Quick test_wexec_wait_leaves_nothing;
        ] );
      ( "resvc",
        [
          Alcotest.test_case "alloc and free" `Quick test_resvc_alloc_free;
          Alcotest.test_case "inventory in kvs" `Quick test_resvc_inventory_in_kvs;
        ] );
    ]
