(* Additional CMB coverage: overlay edge cases, event-plane behaviour
   under failure, API conveniences, and topology-consistency properties. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Rng = Flux_util.Rng
module Treemath = Flux_util.Treemath
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Api = Flux_cmb.Api

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let echo_module b =
  {
    Session.mod_name = "echo";
    on_request =
      (fun msg ->
        Session.respond b msg (Json.obj [ ("rank", Json.int (Session.rank b)) ]);
        Session.Consumed);
  }

(* --- Direct plane edge cases ------------------------------------------------- *)

let test_direct_rpc_to_dead_rank_times_out () =
  let eng = Engine.create () in
  let sess = Session.create eng ~rank_topology:Session.Direct ~size:8 () in
  Session.load_module sess echo_module;
  Session.mark_down sess 5;
  let tree = ref None and dead = ref None in
  let api = Api.connect sess ~rank:1 in
  Api.rpc_async api ~topic:"cmb.ping" Json.null ~reply:(fun r -> tree := Some r);
  (* Rank-addressed call to a dead rank: the transport drops it (as a
     crashed peer would); the RPC deadline fires the continuation with
     [Error "timeout"] instead of leaving it dangling forever. *)
  Session.rpc_rank (Session.broker sess 1) ~dst:5 ~topic:"echo.run" Json.null
    ~reply:(fun r -> dead := Some r);
  Engine.run eng;
  (match !tree with
  | Some (Ok p) -> check int "tree rpc answered" 1 (Json.to_int (Json.member "rank" p))
  | _ -> Alcotest.fail "tree rpc should have answered");
  (match !dead with
  | Some (Error "timeout") -> ()
  | Some _ -> Alcotest.fail "rpc to dead rank: expected Error timeout"
  | None -> Alcotest.fail "rpc to dead rank never completed");
  check int "no dangling pending entry" 0 (Session.pending_rpc_count sess 1);
  check int "timeout counted" 1 (Session.rpc_timeouts sess)

let test_ring_skips_dead_ranks () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:8 () in
  Session.load_module sess echo_module;
  (* Kill two intermediate ranks on the ring path 1 -> 4. *)
  Session.mark_down sess 2;
  Session.mark_down sess 3;
  let got = ref None in
  ignore
    (Proc.spawn eng (fun () ->
         let api = Api.connect sess ~rank:1 in
         got := Some (Api.rpc_rank api ~dst:4 ~topic:"echo.run" Json.null)));
  Engine.run eng;
  match !got with
  | Some (Ok p) -> check int "reached around the dead ranks" 4 (Json.to_int (Json.member "rank" p))
  | _ -> Alcotest.fail "ring rpc failed"

(* --- Events under failure -------------------------------------------------------- *)

let test_events_resume_for_reattached_subtree () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  let seen = ref 0 in
  let api14 = Api.connect sess ~rank:14 in
  Api.subscribe api14 ~prefix:"t" (fun ~topic:_ _ -> incr seen);
  let pub = Api.connect sess ~rank:0 in
  Api.publish pub ~topic:"t.one" Json.null;
  Engine.run eng;
  check int "first event arrived" 1 !seen;
  (* Rank 14's chain to the root is 14 -> 6 -> 2 -> 0; kill BOTH
     ancestors, heal, and events must still arrive (reattached to 0). *)
  Session.mark_down sess 6;
  Session.mark_down sess 2;
  Api.publish pub ~topic:"t.two" Json.null;
  Engine.run eng;
  check int "event after double failure" 2 !seen

let test_event_from_dead_publisher_dropped () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let seen = ref 0 in
  let api0 = Api.connect sess ~rank:0 in
  Api.subscribe api0 ~prefix:"x" (fun ~topic:_ _ -> incr seen);
  Session.crash sess 5;
  (* A crashed broker's publishes never leave the node. *)
  Session.publish (Session.broker sess 5) ~topic:"x.e" Json.null;
  Engine.run eng;
  check int "nothing delivered" 0 !seen

(* --- Message size model ------------------------------------------------------------ *)

let test_message_size_components () =
  let base = Message.request ~topic:"kvs.put" ~origin:0 ~nonce:1 Json.null in
  let hopped = Message.push_hop (Message.push_hop base 1) 2 in
  check bool "hops add 4 bytes each" true (Message.size hopped = Message.size base + 8);
  let bigger = Message.request ~topic:"kvs.put" ~origin:0 ~nonce:1 (Json.pad 100) in
  check int "payload counted exactly"
    (Message.size base + 100 - Flux_json.Json.serialized_size Json.null)
    (Message.size bigger)

(* --- Large sessions and fan-outs ------------------------------------------------------ *)

let test_event_total_order_large_kary () =
  let eng = Engine.create () in
  let n = 85 in
  let sess = Session.create eng ~fanout:4 ~size:n () in
  let last = Array.make n 0 in
  let ok = ref true in
  for r = 0 to n - 1 do
    let api = Api.connect sess ~rank:r in
    Api.subscribe api ~prefix:"seq" (fun ~topic:_ payload ->
        let v = Json.to_int payload in
        if v <> last.(r) + 1 then ok := false;
        last.(r) <- v)
  done;
  for i = 1 to 30 do
    let api = Api.connect sess ~rank:(i * 7 mod n) in
    ignore
      (Engine.schedule eng ~delay:(0.0001 *. float_of_int i) (fun () ->
           Api.publish api ~topic:"seq.n" (Json.int i))
        : Engine.handle)
  done;
  Engine.run eng;
  check bool "gap-free in-order delivery everywhere" true !ok;
  Array.iteri (fun r v -> check int (Printf.sprintf "rank %d total" r) 30 v) last

(* --- Healing consistency property ------------------------------------------------------ *)

let prop_heal_topology_consistent =
  QCheck.Test.make ~name:"healing keeps a live tree rooted at the lowest live rank" ~count:60
    QCheck.(pair (int_range 2 40) (small_list (int_range 0 39)))
    (fun (n, kills) ->
      let eng = Engine.create () in
      let sess = Session.create eng ~size:n () in
      let alive_ranks () = List.filter (fun r -> not (Session.is_down sess r)) (List.init n Fun.id) in
      (* Kill the requested ranks but always leave at least one alive. *)
      List.iter
        (fun r -> if r < n && List.length (alive_ranks ()) > 1 then Session.mark_down sess r)
        kills;
      Engine.run eng;
      let alive = alive_ranks () in
      (* The only live rank without a parent is the overlay root, and it
         is the lowest live rank. *)
      let root = List.fold_left min n alive in
      let reaches_root r =
        (* Walking parents terminates at the overlay root (no cycles). *)
        let rec walk r steps =
          if steps > n then false
          else
            match Session.tree_parent (Session.broker sess r) with
            | None -> r = root
            | Some p -> walk p (steps + 1)
        in
        walk r 0
      in
      List.for_all
           (fun r ->
             let b = Session.broker sess r in
             let parent_ok =
               match Session.tree_parent b with
               | Some p ->
                 (* parent is alive, lists us as a child, and is either a
                    static-tree ancestor or the overlay root adopting an
                    orphaned subtree *)
                 (not (Session.is_down sess p))
                 && (Treemath.on_path ~k:2 ~ancestor:p r || p = root)
                 && List.mem r (Session.tree_children (Session.broker sess p))
               | None -> r = root
             in
             let children_ok =
               List.for_all
                 (fun c -> Session.tree_parent (Session.broker sess c) = Some r)
                 (Session.tree_children b)
             in
             parent_ok && children_ok && reaches_root r)
           alive)

(* --- Session hierarchy --------------------------------------------------------- *)

let test_session_hierarchy_lifecycle () =
  let eng = Engine.create () in
  let root = Session.create eng ~size:15 () in
  let child = Session.create_child root ~nodes:[ 3; 4; 5; 6 ] () in
  let grandchild = Session.create_child child ~nodes:[ 0; 1 ] () in
  check bool "parent link" true
    (match Session.child_sessions root with [ c ] -> c == child | _ -> false);
  check bool "grandchild link" true
    (match Session.child_sessions child with [ g ] -> g == grandchild | _ -> false);
  (* The child session works: an RPC inside it. *)
  let got = ref None in
  ignore
    (Proc.spawn eng (fun () ->
         let api = Api.connect child ~rank:3 in
         got := Some (Api.rpc api ~topic:"cmb.ping" Json.null)));
  Engine.run eng;
  (match !got with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "child session rpc failed");
  (* Destroying the child tears down the grandchild and unlinks. *)
  Session.destroy child;
  check bool "child destroyed" true (Session.is_destroyed child);
  check bool "grandchild destroyed" true (Session.is_destroyed grandchild);
  check int "root childless" 0 (List.length (Session.child_sessions root));
  (* Traffic in a destroyed session never reaches a module; the RPC
     lifecycle completes the continuation with a timeout instead of
     leaving it dangling. *)
  let delivered = ref 0 in
  let outcome = ref None in
  Session.load_module child ~ranks:[ 0 ] (fun _b ->
      {
        Session.mod_name = "probe";
        on_request = (fun _ -> incr delivered; Session.Consumed);
      });
  Session.request_up (Session.broker child 1) ~topic:"probe.x" Json.null
    ~reply:(fun r -> outcome := Some r);
  Engine.run eng;
  check int "destroyed session delivers nothing" 0 !delivered;
  (match !outcome with
  | Some (Error "timeout") -> ()
  | Some _ -> Alcotest.fail "expected Error timeout in destroyed session"
  | None -> Alcotest.fail "rpc in destroyed session never completed");
  check int "no dangling pending entry" 0 (Session.pending_rpc_count child 1)

let test_session_child_validation () =
  let eng = Engine.create () in
  let root = Session.create eng ~size:8 () in
  Alcotest.check_raises "empty" (Invalid_argument "Session.create_child: empty node list")
    (fun () -> ignore (Session.create_child root ~nodes:[] ()));
  Alcotest.check_raises "dup" (Invalid_argument "Session.create_child: duplicate ranks")
    (fun () -> ignore (Session.create_child root ~nodes:[ 1; 1 ] ()));
  Alcotest.check_raises "range" (Invalid_argument "Session.create_child: rank 9 out of range")
    (fun () -> ignore (Session.create_child root ~nodes:[ 9 ] ()));
  Session.mark_down root 3;
  Alcotest.check_raises "dead host" (Invalid_argument "Session.create_child: parent rank 3 is down")
    (fun () -> ignore (Session.create_child root ~nodes:[ 3 ] ()))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "flux_cmb_extra"
    [
      ( "planes",
        [
          Alcotest.test_case "direct to dead rank" `Quick test_direct_rpc_to_dead_rank_times_out;
          Alcotest.test_case "ring skips dead ranks" `Quick test_ring_skips_dead_ranks;
        ] );
      ( "events",
        [
          Alcotest.test_case "resume after reattach" `Quick
            test_events_resume_for_reattached_subtree;
          Alcotest.test_case "dead publisher dropped" `Quick test_event_from_dead_publisher_dropped;
          Alcotest.test_case "total order in 4-ary 85-rank session" `Quick
            test_event_total_order_large_kary;
        ] );
      ("size-model", [ Alcotest.test_case "components" `Quick test_message_size_components ]);
      ( "hierarchy",
        [
          Alcotest.test_case "lifecycle" `Quick test_session_hierarchy_lifecycle;
          Alcotest.test_case "validation" `Quick test_session_child_validation;
        ] );
      qsuite "props" [ prop_heal_topology_consistent ];
    ]
