(* Failure-path coverage for the RPC lifecycle: injected faults on the
   fabric (loss, blackouts), deadline/retransmit behaviour, fence
   liveness with dead or silent children, and cache byte accounting
   under eviction pressure. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Net = Flux_sim.Net
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let json_t = Alcotest.testable Json.pp Json.equal

let expect_ok label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label e

let echo_module b =
  {
    Session.mod_name = "echo";
    on_request =
      (fun msg ->
        Session.respond b msg (Json.obj [ ("rank", Json.int (Session.rank b)) ]);
        Session.Consumed);
  }

(* --- Retransmission through a healed link ------------------------------- *)

let test_retry_succeeds_after_blackout () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:8 () in
  Session.load_module sess ~ranks:[ 0 ] echo_module;
  (* Black out the uplink before the request goes out: the first attempt
     becomes a dead letter, the deadline fires, and the retransmit (same
     nonce) goes through once the link has healed itself. *)
  Net.blackout (Session.rpc_net sess) ~src:1 ~dst:0 ~duration:1.0;
  let got = ref None in
  Session.request_up (Session.broker sess 1) ~idempotent:true ~topic:"echo.run"
    Json.null ~reply:(fun r -> got := Some r);
  Engine.run eng;
  (match !got with
  | Some (Ok p) -> check int "answered by the root" 0 (Json.to_int (Json.member "rank" p))
  | Some (Error e) -> Alcotest.failf "rpc failed: %s" e
  | None -> Alcotest.fail "rpc never completed");
  check bool "retransmitted at least once" true (Session.rpc_retries sess >= 1);
  check bool "first attempt was a dead letter" true
    ((Net.stats (Session.rpc_net sess)).Net.dead_letters >= 1);
  check int "no dangling pending entry" 0 (Session.pending_rpc_count sess 1)

let test_non_idempotent_rpc_fails_fast () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:8 () in
  Session.load_module sess ~ranks:[ 0 ] echo_module;
  Net.cut_link (Session.rpc_net sess) ~src:1 ~dst:0;
  let got = ref None in
  (* Without [idempotent] there is exactly one attempt: the deadline
     reports the loss instead of silently re-executing the request. *)
  Session.request_up (Session.broker sess 1) ~topic:"echo.run" Json.null
    ~reply:(fun r -> got := Some r);
  Engine.run eng;
  (match !got with
  | Some (Error "timeout") -> ()
  | Some _ -> Alcotest.fail "expected Error timeout"
  | None -> Alcotest.fail "rpc never completed");
  check int "no retransmissions" 0 (Session.rpc_retries sess);
  check int "timeout counted" 1 (Session.rpc_timeouts sess)

(* The fixed retry policy: 2 s per attempt, 4 transmissions for an
   idempotent request, and a 50 ms backoff doubling up to a 1 s cap,
   less up to 10% jitter. Over a link that never heals, the request
   fails after four deadlines and three backoffs. *)
let test_idempotent_retry_policy () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:8 () in
  Session.load_module sess ~ranks:[ 0 ] echo_module;
  Net.cut_link (Session.rpc_net sess) ~src:1 ~dst:0;
  let got = ref None in
  Session.request_up (Session.broker sess 1) ~idempotent:true ~topic:"echo.run" Json.null
    ~reply:(fun r -> got := Some (r, Engine.now eng));
  Engine.run eng;
  let at =
    match !got with
    | Some (Error "timeout", at) -> at
    | Some _ -> Alcotest.fail "expected Error timeout"
    | None -> Alcotest.fail "rpc never completed"
  in
  check int "three retransmissions" 3 (Session.rpc_retries sess);
  check int "one timeout" 1 (Session.rpc_timeouts sess);
  (* 4 x 2 s + (0.05 + 0.1 + 0.2) s, the backoff less up to 10%. *)
  check bool
    (Printf.sprintf "failed at %.9f s, within [8.315, 8.35]" at)
    true
    (at >= 8.315 && at <= 8.35)

(* --- KVS get under injected loss through a healed parent ----------------- *)

let test_kvs_get_under_loss_via_healed_parent () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  let _kvs = Kvs.load sess () in
  let big = Json.string (String.make 400 'x') in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:0 in
         expect_ok "put" (Client.put c ~key:"deep.a.b" big);
         ignore (expect_ok "commit" (Client.commit c) : int)));
  Engine.run eng;
  (* Kill rank 13's parent (rank 6) and degrade the fabric: every load
     the get faults in must now survive 10% message loss while routing
     through the healed parent (rank 2). *)
  Session.mark_down sess 6;
  Net.set_loss (Session.rpc_net sess) 0.10;
  let result = ref None in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:13 in
         result := Some (Client.get c ~key:"deep.a.b")));
  Engine.run eng;
  (match !result with
  | Some (Ok v) -> check json_t "value survives loss + reparenting" big v
  | Some (Error e) -> Alcotest.failf "get failed under loss: %s" e
  | None -> Alcotest.fail "get never completed");
  check int "no dangling pending entries" 0
    (List.fold_left
       (fun acc r -> acc + Session.pending_rpc_count sess r)
       0
       (List.init 15 Fun.id))

(* --- Fence liveness ------------------------------------------------------- *)

let test_sparse_fence_with_dead_child () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let kvs = Kvs.load sess () in
  ignore kvs;
  let window = Flux_cmb.Collective.window in
  (* Rank 6 is dead but never marked down: its parent (rank 2) keeps it
     in the children list and must give up waiting for it after two quiet
     windows instead of deadlocking the fence. *)
  Session.crash sess 6;
  let elapsed = ref infinity in
  let done_count = ref 0 in
  List.iter
    (fun i ->
      ignore
        (Proc.spawn eng (fun () ->
             let c = Client.connect sess ~rank:5 in
             expect_ok "put" (Client.put c ~key:(Printf.sprintf "sf.%d" i) (Json.int i));
             let t0 = Engine.now eng in
             ignore (expect_ok "fence" (Client.fence c ~name:"sparse" ~nprocs:2) : int);
             elapsed := Float.min !elapsed (Engine.now eng -. t0);
             incr done_count)))
    [ 0; 1 ];
  Engine.run eng;
  check int "both participants released" 2 !done_count;
  (* Per-hop the forwarding policy waits at most two windows of quiet;
     with one silent-sibling hop on the path the whole fence stays within
     three windows end to end. *)
  check bool "completed within the sparse-fence deadline" true
    (!elapsed <= 3.0 *. window)

let test_fence_survives_parent_death () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  let _kvs = Kvs.load sess () in
  (* Rank 6 (parent of 13 and 14) is dead from the start but only marked
     down later: the slaves' fence flushes are swallowed by the dead
     host, time out, and the retransmit must route through the healed
     parent (rank 2) and complete the collective exactly once. *)
  Session.crash sess 6;
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> Session.mark_down sess 6) : Engine.handle);
  let versions = ref [] in
  let bodies = [ 5; 13; 14 ] in
  List.iter
    (fun r ->
      ignore
        (Proc.spawn eng (fun () ->
             let c = Client.connect sess ~rank:r in
             expect_ok "put" (Client.put c ~key:(Printf.sprintf "pf.%d" r) (Json.int r));
             let v = expect_ok "fence" (Client.fence c ~name:"pdeath" ~nprocs:3) in
             versions := v :: !versions;
             (* After the fence every participant's write is visible. *)
             List.iter
               (fun r' ->
                 check json_t
                   (Printf.sprintf "pf.%d visible at %d" r' r)
                   (Json.int r')
                   (expect_ok "get" (Client.get c ~key:(Printf.sprintf "pf.%d" r'))))
               bodies)))
    bodies;
  Engine.run eng;
  check int "all participants released" 3 (List.length !versions);
  (match !versions with
  | v :: rest -> List.iter (fun v' -> check int "same fence version" v v') rest
  | [] -> ());
  check bool "flushes were retransmitted" true (Session.rpc_retries sess >= 1);
  check int "exactly one version bump" 1
    (match !versions with v :: _ -> v | [] -> 0)

(* --- Heal edge cases: root death, cascades, wide fan-outs, rejoin -------- *)

let subscribe_counters sess ranks =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Hashtbl.replace counts r 0;
      let api = Api.connect sess ~rank:r in
      Api.subscribe api ~prefix:"hx" (fun ~topic:_ _ ->
          Hashtbl.replace counts r (Hashtbl.find counts r + 1)))
    ranks;
  counts

let test_root_death_reroots () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let live = [ 1; 2; 3; 4; 5; 6 ] in
  let counts = subscribe_counters sess live in
  Session.mark_down sess 0;
  Engine.run eng;
  check int "lowest live rank is the new root" 1 (Session.root_rank sess);
  (* Rank 2's only static ancestor (0) is dead: the whole orphaned
     subtree attaches to the new root. *)
  check (Alcotest.option int) "rank 2 adopted by new root" (Some 1)
    (Session.tree_parent (Session.broker sess 2));
  check (Alcotest.option int) "new root has no parent" None
    (Session.tree_parent (Session.broker sess 1));
  (* The root-stamped sequence survives: events published after the root
     death still reach every live rank. *)
  let api = Api.connect sess ~rank:5 in
  Api.publish api ~topic:"hx.a" (Json.int 1);
  Engine.run eng;
  List.iter
    (fun r -> check int (Printf.sprintf "rank %d got the event" r) 1 (Hashtbl.find counts r))
    live

let test_cascading_ancestor_deaths () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  (* Rank 13's full static ancestor chain is 6 -> 2 -> 0; kill it bottom
     to top so each heal must look further up, ending at the new root. *)
  List.iter (fun r -> Session.mark_down sess r) [ 6; 2; 0 ];
  Engine.run eng;
  check int "new root" 1 (Session.root_rank sess);
  check (Alcotest.option int) "rank 13 falls through to the root" (Some 1)
    (Session.tree_parent (Session.broker sess 13));
  check (Alcotest.option int) "rank 14 falls through to the root" (Some 1)
    (Session.tree_parent (Session.broker sess 14));
  (* Rank 5 still has its live static ancestor path cut at 2: adopts root. *)
  check (Alcotest.option int) "rank 5 adopted by root" (Some 1)
    (Session.tree_parent (Session.broker sess 5));
  let live = Session.alive_ranks sess in
  let counts = subscribe_counters sess live in
  let api = Api.connect sess ~rank:14 in
  Api.publish api ~topic:"hx.c" (Json.int 1);
  Engine.run eng;
  List.iter
    (fun r -> check int (Printf.sprintf "rank %d got the event" r) 1 (Hashtbl.find counts r))
    live

let test_fanout3_root_death () =
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout:3 ~size:13 () in
  Session.mark_down sess 0;
  Engine.run eng;
  check int "new root" 1 (Session.root_rank sess);
  (* All three static children of rank 0 must end up under the new root
     (rank 1 by promotion, 2 and 3 by adoption). *)
  let kids = List.sort compare (Session.tree_children (Session.broker sess 1)) in
  check bool "rank 2 under new root" true (List.mem 2 kids);
  check bool "rank 3 under new root" true (List.mem 3 kids);
  (* Rank 1's own static children are still there. *)
  List.iter (fun c -> check bool "static child kept" true (List.mem c kids)) [ 4; 5; 6 ]

let test_heal_then_rejoin_roundtrip () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  let epoch0 = Session.topology_epoch sess in
  Session.mark_down sess 6;
  Session.mark_down sess 0;
  Engine.run eng;
  check int "re-rooted at 1" 1 (Session.root_rank sess);
  Session.mark_up sess 6;
  Session.mark_up sess 0;
  Engine.run eng;
  (* Pristine static topology restored. *)
  check int "rank 0 is root again" 0 (Session.root_rank sess);
  check bool "topology epoch advanced" true (Session.topology_epoch sess > epoch0);
  for r = 1 to 14 do
    check (Alcotest.option int)
      (Printf.sprintf "rank %d static parent restored" r)
      (Some ((r - 1) / 2))
      (Session.tree_parent (Session.broker sess r))
  done;
  (* Revived ranks receive post-rejoin events. *)
  let all = List.init 15 Fun.id in
  let counts = subscribe_counters sess all in
  let api = Api.connect sess ~rank:13 in
  Api.publish api ~topic:"hx.r" (Json.int 1);
  Engine.run eng;
  List.iter
    (fun r -> check int (Printf.sprintf "rank %d got the event" r) 1 (Hashtbl.find counts r))
    all

let test_live_rejoin_clears_declared_down () =
  let module Hb = Flux_modules.Hb in
  let module Live = Flux_modules.Live in
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let hb = Hb.load sess ~period:0.05 () in
  let live = Live.load sess ~hb ~max_missed:3 () in
  (* Crash leaf 5 silently; its parent (rank 2) declares it. *)
  ignore (Engine.schedule eng ~delay:0.3 (fun () -> Session.crash sess 5) : Engine.handle);
  ignore
    (Engine.schedule eng ~delay:1.0 (fun () ->
         check bool "declared down before rejoin" true (List.mem 5 (Live.declared_down live.(2)));
         Session.mark_up sess 5)
      : Engine.handle);
  ignore
    (Engine.schedule eng ~delay:1.5 (fun () ->
         (* Rejoin cleared the declaration and restarted 5's liveness
            clock: no immediate re-declaration from the stale history. *)
         check (Alcotest.list int) "declaration cleared on rejoin" []
           (Live.declared_down live.(2));
         check bool "session up" false (Session.is_down sess 5);
         (* A second silent crash must be detected afresh. *)
         Session.crash sess 5)
      : Engine.handle);
  ignore (Engine.schedule eng ~delay:2.5 (fun () -> Hb.stop hb) : Engine.handle);
  Engine.run eng;
  check bool "second crash re-detected" true (List.mem 5 (Live.declared_down live.(2)));
  check bool "session marked down again" true (Session.is_down sess 5)

(* --- Watch / wait_version across a master failover ----------------------- *)

let test_watch_fires_after_takeover () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  let kvs = Kvs.load sess ~config:Kvs.replicated_config () in
  let seen = ref [] in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:13 in
         expect_ok "watch" (Client.watch c ~key:"wf.k" (fun v -> seen := v :: !seen)))
      : Proc.pid);
  Engine.run eng;
  check bool "initial callback saw the key absent" true (!seen = [ None ]);
  (* Kill the master, then write through a survivor: the watcher must be
     driven by the NEW master's epoch-stamped setroot announcement. *)
  Session.mark_down sess 0;
  Engine.run eng;
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:5 in
         expect_ok "put" (Client.put c ~key:"wf.k" (Json.int 42));
         ignore (expect_ok "commit" (Client.commit c) : int))
      : Proc.pid);
  Engine.run eng;
  check bool "takeover happened" true (Kvs.epoch kvs.(1) >= 1);
  (match !seen with
  | Some v :: _ -> check json_t "watch fired with the post-takeover value" (Json.int 42) v
  | _ -> Alcotest.fail "watch did not fire after the failover commit")

let test_wait_version_crosses_failover () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  let _kvs = Kvs.load sess ~config:Kvs.replicated_config () in
  let woke_at = ref None in
  (* Park a waiter on a version that does not exist yet. *)
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:13 in
         expect_ok "wait_version" (Client.wait_version c 1);
         woke_at := Some (expect_ok "get_version" (Client.get_version c)))
      : Proc.pid);
  (* The master dies before any commit; the version the waiter needs can
     only ever arrive via the new master's announcement. *)
  ignore (Engine.schedule eng ~delay:0.001 (fun () -> Session.mark_down sess 0) : Engine.handle);
  ignore
    (Engine.schedule eng ~delay:0.05 (fun () ->
         ignore
           (Proc.spawn eng (fun () ->
                let c = Client.connect sess ~rank:5 in
                expect_ok "put" (Client.put c ~key:"wv.k" (Json.int 1));
                ignore (expect_ok "commit" (Client.commit c) : int))
             : Proc.pid))
      : Engine.handle);
  Engine.run eng;
  match !woke_at with
  | Some v -> check bool "waiter woke at the committed version" true (v >= 1)
  | None -> Alcotest.fail "wait_version never completed after the failover"

let test_unwatch_stops_across_failover () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  let _kvs = Kvs.load sess ~config:Kvs.replicated_config () in
  let fired = ref 0 in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:13 in
         expect_ok "watch" (Client.watch c ~key:"uw.k" (fun _ -> incr fired));
         Client.unwatch c ~key:"uw.k")
      : Proc.pid);
  Engine.run eng;
  check int "only the initial callback fired" 1 !fired;
  Session.mark_down sess 0;
  Engine.run eng;
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:5 in
         expect_ok "put" (Client.put c ~key:"uw.k" (Json.int 7));
         ignore (expect_ok "commit" (Client.commit c) : int))
      : Proc.pid);
  Engine.run eng;
  (* The new value did reach the watcher's slave — so silence below is
     the unwatch working, not a dead link. *)
  let got = ref None in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:13 in
         got := Some (expect_ok "get" (Client.get c ~key:"uw.k")))
      : Proc.pid);
  Engine.run eng;
  (match !got with
  | Some v -> check json_t "slave observed the post-takeover value" (Json.int 7) v
  | None -> Alcotest.fail "get via watcher rank failed");
  check int "no callbacks after unwatch, even across failover" 1 !fired

(* --- Cache byte accounting under eviction -------------------------------- *)

let test_lru_eviction_bounds_store_bytes () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:3 () in
  let cfg = { Kvs.default_config with Kvs.cache_capacity = 4 } in
  let kvs = Kvs.load sess ~config:cfg () in
  let rounds = 20 in
  let value_bytes = 400 in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:1 in
         for i = 1 to rounds do
           expect_ok "put"
             (Client.put c ~key:(Printf.sprintf "ev.k%d" i)
                (Json.string (String.make value_bytes (Char.chr (97 + (i mod 26))))));
           ignore (expect_ok "commit" (Client.commit c) : int)
         done));
  Engine.run eng;
  let slave = kvs.(1) in
  check int "no dirty leftovers" 0 (Kvs.dirty_count slave);
  check bool "cache bounded by capacity" true (Kvs.cached_objects slave <= 4);
  (* Without the eviction hook the slave would still account all
     [rounds] values (> 8000 B); with it, [store_bytes] tracks only what
     the cache actually holds. *)
  let held = Kvs.store_bytes slave in
  check bool "bytes released on eviction" true
    (held <= (4 + 1) * (value_bytes + 16));
  check bool "accounting never goes negative" true (held >= 0)

let () =
  Alcotest.run "failures"
    [
      ( "rpc",
        [
          Alcotest.test_case "retry succeeds after blackout heals" `Quick
            test_retry_succeeds_after_blackout;
          Alcotest.test_case "non-idempotent fails fast" `Quick
            test_non_idempotent_rpc_fails_fast;
          Alcotest.test_case "idempotent retry policy over a cut link" `Quick
            test_idempotent_retry_policy;
        ] );
      ( "kvs",
        [
          Alcotest.test_case "get under 10% loss via healed parent" `Quick
            test_kvs_get_under_loss_via_healed_parent;
          Alcotest.test_case "lru eviction bounds store bytes" `Quick
            test_lru_eviction_bounds_store_bytes;
        ] );
      ( "fence",
        [
          Alcotest.test_case "sparse fence with dead child" `Quick
            test_sparse_fence_with_dead_child;
          Alcotest.test_case "fence survives parent death" `Quick
            test_fence_survives_parent_death;
        ] );
      ( "watch",
        [
          Alcotest.test_case "watch fires on post-takeover setroot" `Quick
            test_watch_fires_after_takeover;
          Alcotest.test_case "wait_version crosses failover" `Quick
            test_wait_version_crosses_failover;
          Alcotest.test_case "unwatch stops across failover" `Quick
            test_unwatch_stops_across_failover;
        ] );
      ( "heal",
        [
          Alcotest.test_case "root death re-roots the overlay" `Quick test_root_death_reroots;
          Alcotest.test_case "cascading ancestor deaths" `Quick test_cascading_ancestor_deaths;
          Alcotest.test_case "fanout-3 root death" `Quick test_fanout3_root_death;
          Alcotest.test_case "heal then rejoin round-trip" `Quick test_heal_then_rejoin_roundtrip;
          Alcotest.test_case "live rejoin clears declared_down" `Quick
            test_live_rejoin_clears_declared_down;
        ] );
    ]
