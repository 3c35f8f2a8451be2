(* Tests for the CMB session: routing over the three planes, comms-module
   loading, events, and self-healing. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Topic = Flux_cmb.Topic
module Api = Flux_cmb.Api

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* --- Topic ------------------------------------------------------------ *)

let test_topic () =
  check string "service" "kvs" (Topic.service "kvs.put");
  check string "method" "put" (Topic.method_ "kvs.put");
  check string "method nested" "commit.begin" (Topic.method_ "kvs.commit.begin");
  check bool "prefixed" true (Topic.prefixed ~prefix:"hb" "hb.pulse");
  check bool "not prefixed" false (Topic.prefixed ~prefix:"hb" "hbx.pulse");
  check bool "empty prefix" true (Topic.prefixed ~prefix:"" "anything");
  check bool "invalid empty" false (Topic.is_valid "");
  check bool "invalid dots" false (Topic.is_valid "a..b");
  check bool "valid" true (Topic.is_valid "wexec.run-1_x")

(* Reference definitions: a component split and a [String.sub]
   comparison. [Topic] checks in one scan and compares in place. *)
let ref_is_valid s =
  let word_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
    | _ -> false
  in
  String.length s > 0
  && (not (String.exists (fun c -> not (word_char c || c = '.')) s))
  && List.for_all (fun comp -> String.length comp > 0) (String.split_on_char '.' s)

let ref_prefixed ~prefix topic =
  String.length prefix = 0
  || String.equal prefix topic
  || String.length topic > String.length prefix
     && String.sub topic 0 (String.length prefix) = prefix
     && topic.[String.length prefix] = '.'

let topic_matches_reference =
  let str =
    QCheck.string_gen_of_size (QCheck.Gen.int_range 0 8)
      (QCheck.Gen.oneofl [ 'a'; 'b'; '.'; '-'; '_'; '!' ])
  in
  QCheck.Test.make ~name:"is_valid and prefixed match the reference" ~count:2000
    (QCheck.pair str str) (fun (a, b) ->
      Topic.is_valid a = ref_is_valid a
      && Topic.prefixed ~prefix:a b = ref_prefixed ~prefix:a b
      && Topic.prefixed ~prefix:a (a ^ b) = ref_prefixed ~prefix:a (a ^ b))

(* --- Message ------------------------------------------------------------ *)

let test_message () =
  let req = Message.request ~topic:"kvs.put" ~origin:3 ~nonce:7 (Json.int 1) in
  let resp = Message.response ~of_:req (Json.string "ok") in
  check string "resp topic" "kvs.put" resp.Message.topic;
  check int "resp nonce" 7 resp.Message.nonce;
  let err = Message.error_response ~of_:req "nope" in
  (match err.Message.error with
  | Some e -> check string "error" "nope" e
  | None -> Alcotest.fail "expected error");
  let hopped = Message.push_hop req 3 in
  (match Message.pop_hop hopped with
  | Some (3, back) -> check int "route emptied" 0 (List.length back.Message.route)
  | _ -> Alcotest.fail "pop_hop");
  check bool "size grows with payload" true
    (Message.size (Message.request ~topic:"x" ~origin:0 ~nonce:0 (Json.pad 100))
    > Message.size (Message.request ~topic:"x" ~origin:0 ~nonce:0 Json.null))

(* --- Helpers ------------------------------------------------------------- *)

(* An echo module: responds to echo.run with its own rank and the payload. *)
let echo_module b =
  {
    Session.mod_name = "echo";
    on_request =
      (fun msg ->
        match Topic.method_ msg.Message.topic with
        | "run" ->
          Session.respond b msg
            (Json.obj
               [ ("rank", Json.int (Session.rank b)); ("payload", msg.Message.payload) ]);
          Session.Consumed
        | _ ->
          Session.respond_error b msg "unknown method";
          Session.Consumed);
  }

let run_proc_expect eng f =
  let result = ref None in
  ignore (Proc.spawn eng (fun () -> result := Some (f ())));
  Engine.run eng;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "process did not complete"

(* --- RPC routing ----------------------------------------------------------- *)

let test_ping_local () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:8 () in
  let api = Api.connect sess ~rank:5 in
  let reply = run_proc_expect eng (fun () -> Api.rpc api ~topic:"cmb.ping" Json.null) in
  match reply with
  | Ok payload -> check int "handled at own rank" 5 (Json.to_int (Json.member "rank" payload))
  | Error e -> Alcotest.failf "rpc failed: %s" e

let test_rpc_routed_upstream () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  (* echo loaded only at the root: a leaf request must climb the tree. *)
  Session.load_module sess ~ranks:[ 0 ] echo_module;
  let api = Api.connect sess ~rank:14 in
  let reply =
    run_proc_expect eng (fun () -> Api.rpc api ~topic:"echo.run" (Json.string "hi"))
  in
  match reply with
  | Ok payload ->
    check int "answered by root" 0 (Json.to_int (Json.member "rank" payload));
    check string "payload carried" "hi" (Json.to_string_v (Json.member "payload" payload))
  | Error e -> Alcotest.failf "rpc failed: %s" e

let test_rpc_nearest_module_wins () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  (* Loaded at root and at rank 6; rank 14 is under 6 (14->6->2->0). *)
  Session.load_module sess ~ranks:[ 0; 6 ] echo_module;
  let api = Api.connect sess ~rank:14 in
  let reply = run_proc_expect eng (fun () -> Api.rpc api ~topic:"echo.run" Json.null) in
  match reply with
  | Ok payload -> check int "nearest instance" 6 (Json.to_int (Json.member "rank" payload))
  | Error e -> Alcotest.failf "rpc failed: %s" e

let test_unknown_service () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:4 () in
  let api = Api.connect sess ~rank:3 in
  let reply = run_proc_expect eng (fun () -> Api.rpc api ~topic:"nosuch.thing" Json.null) in
  match reply with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> check string "error names service" "unknown service \"nosuch\"" e

let test_topo_query () =
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout:2 ~size:7 () in
  let api = Api.connect sess ~rank:1 in
  let reply = run_proc_expect eng (fun () -> Api.rpc api ~topic:"cmb.topo" Json.null) in
  match reply with
  | Ok p ->
    check int "parent" 0 (Json.to_int (Json.member "parent" p));
    check (Alcotest.list int) "children" [ 3; 4 ]
      (List.map Json.to_int (Json.to_list (Json.member "children" p)))
  | Error e -> Alcotest.failf "rpc failed: %s" e

(* --- Ring plane -------------------------------------------------------------- *)

let test_ring_rpc () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:8 () in
  Session.load_module sess echo_module;
  let api = Api.connect sess ~rank:6 in
  (* Address rank 3 explicitly: request travels 6->7->0->1->2->3. *)
  let reply =
    run_proc_expect eng (fun () -> Api.rpc_rank api ~dst:3 ~topic:"echo.run" Json.null)
  in
  match reply with
  | Ok payload -> check int "reached rank 3" 3 (Json.to_int (Json.member "rank" payload))
  | Error e -> Alcotest.failf "ring rpc failed: %s" e

let test_ring_rpc_missing_module () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:4 () in
  Session.load_module sess ~ranks:[ 0 ] echo_module;
  let api = Api.connect sess ~rank:1 in
  let reply =
    run_proc_expect eng (fun () -> Api.rpc_rank api ~dst:2 ~topic:"echo.run" Json.null)
  in
  match reply with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> check string "names rank" "no module \"echo\" at rank 2" e

(* --- Events ------------------------------------------------------------------- *)

let test_event_reaches_all_ranks () =
  let eng = Engine.create () in
  let n = 15 in
  let sess = Session.create eng ~size:n () in
  let seen = Array.make n 0 in
  for r = 0 to n - 1 do
    let api = Api.connect sess ~rank:r in
    Api.subscribe api ~prefix:"test" (fun ~topic:_ _ -> seen.(r) <- seen.(r) + 1)
  done;
  let api = Api.connect sess ~rank:11 in
  Api.publish api ~topic:"test.ev" Json.null;
  Engine.run eng;
  Array.iteri (fun r c -> check int (Printf.sprintf "rank %d saw event" r) 1 c) seen

let test_events_in_order () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:9 () in
  let got = ref [] in
  let api8 = Api.connect sess ~rank:8 in
  Api.subscribe api8 ~prefix:"seqtest" (fun ~topic:_ payload ->
      got := Json.to_int payload :: !got);
  (* Publish from several ranks; root stamps a total order; every
     subscriber sees that order. *)
  List.iteri
    (fun i r ->
      let api = Api.connect sess ~rank:r in
      ignore
        (Engine.schedule eng ~delay:(0.001 *. float_of_int i) (fun () ->
             Api.publish api ~topic:"seqtest.n" (Json.int i))))
    [ 3; 7; 1; 5; 0 ];
  Engine.run eng;
  check (Alcotest.list int) "in publish order" [ 0; 1; 2; 3; 4 ] (List.rev !got)

let test_event_prefix_filtering () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:3 () in
  let hb = ref 0 and all = ref 0 in
  let api = Api.connect sess ~rank:2 in
  Api.subscribe api ~prefix:"hb" (fun ~topic:_ _ -> incr hb);
  Api.subscribe api ~prefix:"" (fun ~topic:_ _ -> incr all);
  let pub = Api.connect sess ~rank:1 in
  Api.publish pub ~topic:"hb.pulse" Json.null;
  Api.publish pub ~topic:"other.ev" Json.null;
  Engine.run eng;
  check int "prefix filtered" 1 !hb;
  check int "catch-all" 2 !all

(* One list per broker serves modules and clients in subscription order:
   hb, loaded first, has recorded each pulse's epoch before a client that
   subscribed later sees the pulse, and a subscription added by a handler
   sees only later events. *)
let test_event_dispatch_order () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:3 () in
  let hb = Flux_modules.Hb.load sess () in
  let b = Session.broker sess 1 in
  let epoch (ev : Message.t) = Json.to_int (Json.member "epoch" ev.Message.payload) in
  let seen = ref [] and late = ref [] in
  Session.subscribe b ~prefix:"hb.pulse" (fun ev ->
      seen := (epoch ev, Flux_modules.Hb.epoch hb.(1)) :: !seen;
      if epoch ev = 1 then
        Session.subscribe b ~prefix:"hb.pulse" (fun ev -> late := epoch ev :: !late));
  Engine.run eng ~until:0.35;
  Flux_modules.Hb.stop hb;
  let pairs = Alcotest.(list (pair int int)) in
  check pairs "module handled each pulse first" [ (1, 1); (2, 2); (3, 3) ] (List.rev !seen);
  check (Alcotest.list int) "added in a handler: later pulses only" [ 2; 3 ] (List.rev !late)

(* A one-shot wait fires once, on its exact topic, even when a handler
   ahead of it republishes that topic re-entrantly at the root. *)
let test_event_once_reentrant () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:3 () in
  let b = Session.broker sess 0 in
  let fired = ref [] in
  Session.subscribe b ~prefix:"re" (fun ev ->
      if Json.to_int ev.Message.payload = 1 then Session.publish b ~topic:"re.x" (Json.int 2));
  Session.subscribe_once b ~topic:"re.x" (fun ev ->
      fired := Json.to_int ev.Message.payload :: !fired);
  Session.publish b ~topic:"re.x.y" (Json.int 0);
  Session.publish b ~topic:"re.x" (Json.int 1);
  Session.publish b ~topic:"re.x" (Json.int 3);
  Engine.run eng;
  check (Alcotest.list int) "fired once, on the re-entrant event" [ 2 ] !fired

(* --- Healing ---------------------------------------------------------------------- *)

let test_heal_reroutes_rpc () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  Session.load_module sess ~ranks:[ 0 ] echo_module;
  (* Kill rank 6 (parent of 13/14, child of 2) and rewire. *)
  Session.mark_down sess 6;
  check (Alcotest.list int) "rank 14 adopted by 2"
    [ 2 ]
    (match Session.tree_parent (Session.broker sess 14) with Some p -> [ p ] | None -> []);
  let api = Api.connect sess ~rank:14 in
  let reply = run_proc_expect eng (fun () -> Api.rpc api ~topic:"echo.run" Json.null) in
  (match reply with
  | Ok payload -> check int "still reaches root" 0 (Json.to_int (Json.member "rank" payload))
  | Error e -> Alcotest.failf "rpc after heal failed: %s" e);
  check bool "down recorded" true (Session.is_down sess 6);
  check int "alive count" 14
    (List.length (List.filter (fun r -> not (Session.is_down sess r)) (List.init (Session.size sess) Fun.id)))

let test_heal_events_resync () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let got = ref [] in
  let api5 = Api.connect sess ~rank:5 in
  (* rank 5's static parent is 2 *)
  Api.subscribe api5 ~prefix:"ev" (fun ~topic:_ payload -> got := Json.to_int payload :: !got);
  let pub = Api.connect sess ~rank:0 in
  Api.publish pub ~topic:"ev.a" (Json.int 1);
  Engine.run eng;
  (* Crash rank 2 silently; an event published now is lost to rank 5. *)
  Session.crash sess 2;
  Api.publish pub ~topic:"ev.b" (Json.int 2);
  Engine.run eng;
  check (Alcotest.list int) "event lost while parent dead" [ 1 ] (List.rev !got);
  (* Detection: mark rank 2 down; rank 5 reattaches and resyncs. *)
  Session.mark_down sess 2;
  Engine.run eng;
  check (Alcotest.list int) "resync recovered the gap" [ 1; 2 ] (List.rev !got);
  (* New events flow normally after healing. *)
  Api.publish pub ~topic:"ev.c" (Json.int 3);
  Engine.run eng;
  check (Alcotest.list int) "post-heal delivery" [ 1; 2; 3 ] (List.rev !got)

let test_module_reduction_pattern () =
  (* A counting module that aggregates child contributions before
     forwarding upstream — the reduction idiom the KVS fence uses. *)
  let eng = Engine.create () in
  let n = 7 in
  let sess = Session.create eng ~size:n () in
  let factory b =
    let pending = ref [] in
    let expected = ref 0 in
    let local = ref 0 in
    let forward_if_complete () =
      let subtree_leaves = List.length (Session.tree_children b) in
      if List.length !pending = subtree_leaves && !local = 1 then begin
        let sum =
          List.fold_left ( + ) 1 (List.map (fun (v, _) -> v) !pending)
        in
        match Session.tree_parent b with
        | Some _ ->
          Session.request_from_module b ~topic:"count.add" (Json.int sum)
            ~reply:(fun r ->
              let total = match r with Ok p -> Json.to_int p | Error _ -> -1 in
              List.iter (fun (_, req) -> Session.respond b req (Json.int total)) !pending;
              ignore !expected)
        | None -> List.iter (fun (_, req) -> Session.respond b req (Json.int sum)) !pending
      end
    in
    {
      Session.mod_name = "count";
      on_request =
        (fun msg ->
          pending := (Json.to_int msg.Message.payload, msg) :: !pending;
          forward_if_complete ();
          Session.Consumed);
    }
  in
  ignore factory;
  (* The full reduction protocol is exercised by the KVS fence tests;
     here we only verify that request_from_module skips local modules. *)
  let sess2 = sess in
  Session.load_module sess2 ~ranks:[ 0 ] echo_module;
  let b3 = Session.broker sess2 3 in
  let got = ref None in
  Session.request_from_module b3 ~topic:"echo.run" Json.null ~reply:(fun r -> got := Some r);
  Engine.run eng;
  match !got with
  | Some (Ok payload) -> check int "went upstream" 0 (Json.to_int (Json.member "rank" payload))
  | _ -> Alcotest.fail "module request failed"

let test_load_module_duplicate_rejected () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:2 () in
  Session.load_module sess ~ranks:[ 0 ] echo_module;
  Alcotest.check_raises "duplicate load"
    (Invalid_argument "Session.load_module: \"echo\" already loaded at rank 0")
    (fun () -> Session.load_module sess ~ranks:[ 0 ] echo_module)

let test_fanout_topology () =
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout:4 ~size:21 () in
  let b0 = Session.broker sess 0 in
  check (Alcotest.list int) "4-ary root children" [ 1; 2; 3; 4 ] (Session.tree_children b0);
  let b1 = Session.broker sess 1 in
  check (Alcotest.list int) "4-ary rank-1 children" [ 5; 6; 7; 8 ] (Session.tree_children b1)

let () =
  Alcotest.run "flux_cmb"
    [
      ( "topic",
        [
          Alcotest.test_case "parsing and matching" `Quick test_topic;
          QCheck_alcotest.to_alcotest topic_matches_reference;
        ] );
      ("message", [ Alcotest.test_case "construction" `Quick test_message ]);
      ( "rpc",
        [
          Alcotest.test_case "local ping" `Quick test_ping_local;
          Alcotest.test_case "routed upstream" `Quick test_rpc_routed_upstream;
          Alcotest.test_case "nearest module wins" `Quick test_rpc_nearest_module_wins;
          Alcotest.test_case "unknown service" `Quick test_unknown_service;
          Alcotest.test_case "topo query" `Quick test_topo_query;
        ] );
      ( "ring",
        [
          Alcotest.test_case "rank-addressed rpc" `Quick test_ring_rpc;
          Alcotest.test_case "missing module error" `Quick test_ring_rpc_missing_module;
        ] );
      ( "events",
        [
          Alcotest.test_case "reaches all ranks" `Quick test_event_reaches_all_ranks;
          Alcotest.test_case "total order" `Quick test_events_in_order;
          Alcotest.test_case "prefix filtering" `Quick test_event_prefix_filtering;
          Alcotest.test_case "one list, subscription order" `Quick test_event_dispatch_order;
          Alcotest.test_case "one-shot fires once" `Quick test_event_once_reentrant;
        ] );
      ( "healing",
        [
          Alcotest.test_case "rpc rerouted" `Quick test_heal_reroutes_rpc;
          Alcotest.test_case "event resync" `Quick test_heal_events_resync;
        ] );
      ( "modules",
        [
          Alcotest.test_case "module upstream request" `Quick test_module_reduction_pattern;
          Alcotest.test_case "duplicate rejected" `Quick test_load_module_duplicate_rejected;
          Alcotest.test_case "fanout topology" `Quick test_fanout_topology;
        ] );
    ]
