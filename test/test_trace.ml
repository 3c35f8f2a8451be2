(* Tests for the tracing subsystem and its integrations. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Net = Flux_sim.Net
module Stats = Flux_util.Stats
module Tracer = Flux_trace.Tracer
module Export = Flux_trace.Export
module Metrics = Flux_trace.Metrics
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Center = Flux_core.Center
module Instance = Flux_core.Instance
module Job = Flux_core.Job
module Jobspec = Flux_core.Jobspec

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let expect_ok label = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" label e

(* --- Tracer mechanics ----------------------------------------------------- *)

let test_emit_and_count () =
  let clock = ref 0.0 in
  let tr = Tracer.create ~now:(fun () -> !clock) () in
  Tracer.emit tr ~cat:"a" ~name:"x" ();
  clock := 1.5;
  Tracer.emit tr ~cat:"a" ~name:"x" ~rank:3 ~fields:[ ("k", Json.int 1) ] ();
  Tracer.emit tr ~cat:"b" ~name:"y" ();
  check int "count a.x" 2 (Tracer.count tr ~cat:"a" ~name:"x");
  check int "count b.y" 1 (Tracer.count tr ~cat:"b" ~name:"y");
  check int "count missing" 0 (Tracer.count tr ~cat:"z" ~name:"z");
  match Tracer.events tr with
  | [ e1; e2; _ ] ->
    check (Alcotest.float 1e-9) "first ts" 0.0 e1.Tracer.ev_ts;
    check (Alcotest.float 1e-9) "second ts" 1.5 e2.Tracer.ev_ts;
    check int "rank recorded" 3 e2.Tracer.ev_rank
  | _ -> Alcotest.fail "expected three events"

let test_capacity_bound () =
  let tr = Tracer.create ~capacity:5 ~now:(fun () -> 0.0) () in
  for i = 1 to 8 do
    Tracer.emit tr ~cat:"c" ~name:"n" ~fields:[ ("i", Json.int i) ] ()
  done;
  check int "retains capacity" 5 (List.length (Tracer.events tr));
  check int "dropped counted" 3 (Tracer.dropped tr);
  check int "counter exact" 8 (Tracer.count tr ~cat:"c" ~name:"n");
  (* Oldest dropped: the first retained event is i=4. *)
  match Tracer.events tr with
  | e :: _ -> check int "oldest is 4" 4 (Json.to_int (List.assoc "i" e.Tracer.ev_fields))
  | [] -> Alcotest.fail "no events"

let test_subscribers () =
  let tr = Tracer.create ~now:(fun () -> 0.0) () in
  let seen = ref 0 in
  Tracer.subscribe tr (fun _ -> incr seen);
  Tracer.emit tr ~cat:"c" ~name:"n" ();
  Tracer.emit tr ~cat:"c" ~name:"n" ();
  check int "notified" 2 !seen

let test_export_roundtrip () =
  let tr = Tracer.create ~now:(fun () -> 3.25) () in
  Tracer.emit tr ~cat:"kvs" ~name:"commit" ~rank:7 ~fields:[ ("tuples", Json.int 4) ] ();
  let lines = String.split_on_char '\n' (String.trim (Export.to_jsonl tr)) in
  check int "one line" 1 (List.length lines);
  let e = Json.of_string (List.hd lines) in
  check string "cat" "kvs" (Json.to_string_v (Json.member "cat" e));
  check string "name" "commit" (Json.to_string_v (Json.member "name" e));
  check int "rank" 7 (Json.to_int (Json.member "rank" e));
  check int "field" 4 (Json.to_int (Json.member "tuples" (Json.member "fields" e)));
  check bool "text mentions event" true
    (let text = Export.to_text tr in
     String.length text > 0
     &&
     try
       ignore (Str.search_forward (Str.regexp_string "commit") text 0);
       true
     with Not_found -> false)

let test_summary_table () =
  let tr = Tracer.create ~now:(fun () -> 0.0) () in
  Tracer.emit tr ~cat:"cmb" ~name:"send" ();
  Tracer.emit tr ~cat:"cmb" ~name:"send" ();
  Tracer.emit tr ~cat:"kvs" ~name:"fence" ();
  let s = Export.summary tr in
  check bool "has cmb row" true
    (try ignore (Str.search_forward (Str.regexp "cmb +send +2") s 0); true with Not_found -> false);
  check bool "has kvs row" true
    (try ignore (Str.search_forward (Str.regexp "kvs +fence +1") s 0); true with Not_found -> false)

let test_counters_csv () =
  let tr = Tracer.create ~now:(fun () -> 0.0) () in
  Tracer.emit tr ~cat:"cmb" ~name:"send" ();
  Tracer.emit tr ~cat:"cmb" ~name:"send" ();
  Tracer.emit tr ~cat:"kvs" ~name:"fence" ();
  let csv = Export.counters_csv tr in
  check string "exact rows"
    "category,name,count\ncmb,send,2\nkvs,fence,1\n" csv

let test_fault_counters_csv () =
  let csv =
    Export.fault_counters_csv
      ~extra:[ ("takeovers", 2) ]
      ~rpc_timeouts:3 ~rpc_retries:5 ~dead_letters:7 ~dropped:11 ()
  in
  check string "exact rows"
    "metric,value\nrpc_timeouts,3\nrpc_retries,5\ndead_letters,7\ndropped,11\ntakeovers,2\n"
    csv

(* --- Causal contexts ------------------------------------------------------ *)

let test_ctx_ids () =
  let tr = Tracer.create ~now:(fun () -> 0.0) () in
  let r = Tracer.root_ctx tr in
  check int "root parent" 0 r.Tracer.tc_parent;
  check int "root trace doubles as span" r.Tracer.tc_trace r.Tracer.tc_span;
  let c = Tracer.child_ctx tr r in
  check int "child keeps trace" r.Tracer.tc_trace c.Tracer.tc_trace;
  check int "child points at parent span" r.Tracer.tc_span c.Tracer.tc_parent;
  check bool "child span is fresh" true (c.Tracer.tc_span <> r.Tracer.tc_span);
  (* Ids are deterministic: a second tracer replays the same sequence. *)
  let tr2 = Tracer.create ~now:(fun () -> 0.0) () in
  let r2 = Tracer.root_ctx tr2 in
  check int "deterministic ids" r.Tracer.tc_trace r2.Tracer.tc_trace

(* --- Export: nested fields and Perfetto ---------------------------------- *)

let test_event_json_nested () =
  let tr = Tracer.create ~now:(fun () -> 1.25) () in
  let nested =
    Json.obj
      [ ("inner", Json.list [ Json.int 1; Json.string "two" ]); ("flag", Json.bool false) ]
  in
  Tracer.emit tr ~cat:"kvs" ~name:"apply" ~rank:2
    ~fields:[ ("detail", nested); ("n", Json.int 3) ]
    ();
  let line = List.hd (String.split_on_char '\n' (String.trim (Export.to_jsonl tr))) in
  let e = Json.of_string line in
  let fields = Json.member "fields" e in
  check string "nested field roundtrips" (Json.to_string nested)
    (Json.to_string (Json.member "detail" fields));
  check int "sibling field" 3 (Json.to_int (Json.member "n" fields));
  check (Alcotest.float 1e-12) "timestamp" 1.25 (Json.to_float (Json.member "ts" e));
  check int "rank" 2 (Json.to_int (Json.member "rank" e))

let test_perfetto_wellformed () =
  let clock = ref 0.0 in
  let tr = Tracer.create ~now:(fun () -> !clock) () in
  Tracer.emit tr ~cat:"cmb" ~name:"rpc.send" ~rank:1 ();
  clock := 2e-3;
  Tracer.emit tr ~cat:"cmb" ~name:"rpc.done" ~rank:1 ~fields:[ ("dur", Json.float 2e-3) ] ();
  Tracer.emit tr ~cat:"kvs" ~name:"put" ~rank:0 ();
  let doc = Json.of_string (Export.to_perfetto tr) in
  let evs = Json.to_list (Json.member "traceEvents" doc) in
  check bool "has rows" true (List.length evs >= 3);
  let phs = List.map (fun e -> Json.to_string_v (Json.member "ph" e)) evs in
  check bool "thread-name metadata" true (List.mem "M" phs);
  check bool "instants" true (List.mem "i" phs);
  (* Events carrying a dur become complete slices anchored at span start,
     with times in microseconds. *)
  let x = List.find (fun e -> Json.to_string_v (Json.member "ph" e) = "X") evs in
  check (Alcotest.float 1e-6) "dur in us" 2000.0 (Json.to_float (Json.member "dur" x));
  check (Alcotest.float 1e-6) "ts anchored at start" 0.0 (Json.to_float (Json.member "ts" x));
  List.iter
    (fun e ->
      ignore (Json.to_int (Json.member "pid" e));
      ignore (Json.to_int (Json.member "tid" e)))
    evs

(* --- Metrics registry ------------------------------------------------------ *)

let test_metrics_counters_gauges () =
  let m = Metrics.create () in
  Metrics.incr m ~name:"c.a" ~rank:1;
  Metrics.add m ~name:"c.a" ~rank:1 2;
  Metrics.add m ~name:"c.a" ~rank:4 10;
  check int "per-rank counter" 3 (Metrics.counter m ~name:"c.a" ~rank:1);
  check int "absent counter" 0 (Metrics.counter m ~name:"c.a" ~rank:0);
  check int "total across ranks" 13 (Metrics.counter_total m ~name:"c.a");
  Metrics.set_gauge m ~name:"g.x" ~rank:0 2.5;
  Metrics.set_gauge m ~name:"g.x" ~rank:0 1.5;
  check (Alcotest.option (Alcotest.float 1e-12)) "gauge keeps last value" (Some 1.5)
    (Metrics.gauge m ~name:"g.x" ~rank:0)

let test_metrics_percentiles () =
  (* Deterministic log-spaced samples (1 us .. ~1 ks) against the exact
     sorted-list percentile oracle: a log-bucketed histogram must agree
     to within one growth ratio each side. *)
  let m = Metrics.create () in
  let st = Stats.create () in
  for i = 0 to 499 do
    let v = 10.0 ** ((float_of_int i /. 50.0) -. 6.0) in
    Metrics.observe m ~name:"lat" ~rank:0 v;
    Stats.add st v
  done;
  let s =
    match Metrics.summary m ~name:"lat" ~rank:0 with
    | Some s -> s
    | None -> Alcotest.fail "no summary"
  in
  check int "count" 500 s.Metrics.n;
  check (Alcotest.float 1e-15) "min exact" 1e-6 s.Metrics.mn;
  let tol = Metrics.growth *. Metrics.growth in
  List.iter
    (fun (q, got) ->
      let oracle = Stats.percentile st q in
      if not (got >= oracle /. tol && got <= oracle *. tol) then
        Alcotest.failf "p%g: histogram %g vs oracle %g beyond tolerance x%g" (100. *. q) got
          oracle tol)
    [ (0.5, s.Metrics.p50); (0.95, s.Metrics.p95); (0.99, s.Metrics.p99) ];
  Metrics.observe m ~name:"lat" ~rank:3 1e-6;
  match Metrics.summary_merged m ~name:"lat" with
  | Some sm -> check int "merged count" 501 sm.Metrics.n
  | None -> Alcotest.fail "no merged summary"

let test_metrics_csv_format () =
  let m = Metrics.create () in
  Metrics.incr m ~name:"c.a" ~rank:1;
  Metrics.set_gauge m ~name:"g.x" ~rank:0 2.5;
  Metrics.observe m ~name:"h.lat" ~rank:0 1.0;
  check string "exact csv"
    "metric,rank,value\n\
     c.a,1,1\n\
     g.x,0,2.5\n\
     h.lat.count,0,1\n\
     h.lat.max,0,1\n\
     h.lat.min,0,1\n\
     h.lat.p50,0,1\n\
     h.lat.p95,0,1\n\
     h.lat.p99,0,1\n\
     h.lat.sum,0,1\n"
    (Metrics.to_csv m)

(* --- Integrations ------------------------------------------------------------- *)

let test_session_integration () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let tr = Tracer.create ~now:(fun () -> Engine.now eng) () in
  Session.set_tracer sess (Some tr);
  ignore
    (Proc.spawn eng (fun () ->
         let api = Api.connect sess ~rank:5 in
         ignore (Api.rpc api ~topic:"cmb.ping" Json.null : Session.reply);
         Api.publish api ~topic:"probe.ev" Json.null;
         Proc.sleep 0.01));
  Engine.run eng;
  check int "rpc completion traced" 1 (Tracer.count tr ~cat:"cmb" ~name:"rpc.done");
  check int "publish traced" 1 (Tracer.count tr ~cat:"cmb" ~name:"event.publish");
  (* The event was delivered at all seven brokers. *)
  check int "deliveries traced" 7 (Tracer.count tr ~cat:"cmb" ~name:"event.deliver");
  (* The rpc.done event carries its topic and a sane duration. *)
  let rpc_ev =
    List.find (fun e -> e.Tracer.ev_name = "rpc.done") (Tracer.events tr)
  in
  check string "topic field" "cmb.ping"
    (Json.to_string_v (List.assoc "topic" rpc_ev.Tracer.ev_fields));
  (* cmb.ping is served by the local broker within one event, so the
     broker-level duration is zero; it must simply be present and
     non-negative. *)
  check bool "duration non-negative" true
    (Json.to_float (List.assoc "dur" rpc_ev.Tracer.ev_fields) >= 0.0)

let test_kvs_integration () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let kvs = Kvs.load sess () in
  let tr = Tracer.create ~now:(fun () -> Engine.now eng) () in
  Kvs.set_tracer_all kvs tr;
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:6 in
         expect_ok "put" (Client.put c ~key:"tr.k" (Json.int 1));
         ignore (expect_ok "commit" (Client.commit c) : int);
         ignore (expect_ok "get" (Client.get c ~key:"tr.k") : Json.t)));
  Engine.run eng;
  check int "put traced" 1 (Tracer.count tr ~cat:"kvs" ~name:"put");
  check bool "commit and flush traced" true
    (Tracer.count tr ~cat:"kvs" ~name:"commit" = 1
    && Tracer.count tr ~cat:"kvs" ~name:"flush" >= 1);
  check int "apply once at master" 1 (Tracer.count tr ~cat:"kvs" ~name:"apply");
  check int "get traced" 1 (Tracer.count tr ~cat:"kvs" ~name:"get")

let test_ctx_propagation_retransmit () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let tr = Tracer.create ~now:(fun () -> Engine.now eng) () in
  Session.set_tracer sess (Some tr);
  (* Lose every ring-plane message until t = 0.3 s: the idempotent RPC's
     first transmission (and possibly early retransmits) vanish, then a
     backoff retransmit gets through. *)
  Net.set_loss (Session.ring_net sess) 1.0;
  ignore
    (Engine.schedule eng ~delay:0.3 (fun () -> Net.set_loss (Session.ring_net sess) 0.0)
      : Engine.handle);
  let got = ref None in
  Session.rpc_rank (Session.broker sess 5) ~idempotent:true ~dst:0 ~topic:"cmb.ping"
    Json.null ~reply:(fun r -> got := Some r);
  Engine.run eng;
  (match !got with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "rpc failed: %s" e
  | None -> Alcotest.fail "no reply");
  check bool "retransmission happened" true (Tracer.count tr ~cat:"cmb" ~name:"rpc.retry" >= 1);
  (* send, every retry, and the completion all carry the same span. *)
  let ctx_of e =
    ( Json.to_int (List.assoc "trace" e.Tracer.ev_fields),
      Json.to_int (List.assoc "span" e.Tracer.ev_fields) )
  in
  let find name =
    List.filter
      (fun e -> e.Tracer.ev_cat = "cmb" && e.Tracer.ev_name = name)
      (Tracer.events tr)
  in
  let send = List.hd (find "rpc.send") in
  List.iter
    (fun retry ->
      check (Alcotest.pair int int) "retry shares the span" (ctx_of send) (ctx_of retry))
    (find "rpc.retry");
  check (Alcotest.pair int int) "completion shares the span" (ctx_of send)
    (ctx_of (List.hd (find "rpc.done")))

let test_fence_critical_path () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:8 () in
  let kvs = Kvs.load sess () in
  let tr = Tracer.create ~now:(fun () -> Engine.now eng) () in
  Session.set_tracer sess (Some tr);
  Kvs.set_tracer_all kvs tr;
  let nprocs = 8 in
  let t_start = ref infinity in
  let t_end = ref 0.0 in
  for r = 0 to nprocs - 1 do
    ignore
      (Proc.spawn eng (fun () ->
           let c = Client.connect sess ~rank:r in
           expect_ok "put" (Client.put c ~key:(Printf.sprintf "cp.k%d" r) (Json.int r));
           if Engine.now eng < !t_start then t_start := Engine.now eng;
           ignore (expect_ok "fence" (Client.fence c ~name:"cp-fence" ~nprocs) : int);
           if Engine.now eng > !t_end then t_end := Engine.now eng)
        : Proc.pid)
  done;
  Engine.run eng;
  let fb =
    match Export.fence_critical_path tr ~name:"cp-fence" with
    | Ok fb -> fb
    | Error e -> Alcotest.fail e
  in
  (* The decomposition telescopes: segments sum to the total exactly. *)
  check (Alcotest.float 1e-12) "segments sum to total" fb.Export.fb_total
    (fb.Export.fb_ascent +. fb.Export.fb_commit +. fb.Export.fb_broadcast);
  check bool "milestones ordered" true
    (fb.Export.fb_start <= fb.Export.fb_commit_begin
    && fb.Export.fb_commit_begin <= fb.Export.fb_publish
    && fb.Export.fb_publish <= fb.Export.fb_end);
  (* All eight processes enter the fence at the same virtual instant
     (identical local puts), so the reconstructed window must match the
     measured collective fence latency. *)
  let window = !t_end -. !t_start in
  if Float.abs (fb.Export.fb_total -. window) > (0.05 *. window) +. 5e-6 then
    Alcotest.failf "critical path %.9f s vs measured window %.9f s" fb.Export.fb_total window;
  (* Span-tree propagation: every tree-reduction hop belongs to the
     trace some client contribution started. *)
  let trace_ids name =
    List.filter_map
      (fun e ->
        if e.Tracer.ev_cat = "kvs" && e.Tracer.ev_name = name then
          Option.map Json.to_int (List.assoc_opt "trace" e.Tracer.ev_fields)
        else None)
      (Tracer.events tr)
  in
  let enters = trace_ids "fence.enter" in
  let forwards = trace_ids "flush.forward" in
  check int "one enter per process" nprocs (List.length enters);
  check bool "reduction hops recorded" true (forwards <> []);
  List.iter
    (fun id -> check bool "forward rides a client's trace" true (List.mem id enters))
    forwards

let test_session_metrics () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let m = Metrics.create () in
  Session.set_metrics sess (Some m);
  ignore
    (Proc.spawn eng (fun () ->
         let api = Api.connect sess ~rank:5 in
         ignore (Api.rpc api ~topic:"cmb.ping" Json.null : Session.reply);
         ignore (Api.rpc_rank api ~dst:2 ~topic:"cmb.ping" Json.null : Session.reply)));
  Engine.run eng;
  (match Metrics.summary_merged m ~name:"cmb.rpc.latency" with
  | Some s -> check int "rpc latencies observed" 2 s.Metrics.n
  | None -> Alcotest.fail "no cmb.rpc.latency histogram");
  (* The ring-addressed ping crossed links, so the ring plane recorded
     per-hop transit samples and wire bytes. *)
  (match Metrics.summary_merged m ~name:"net.ring.transit" with
  | Some s -> check bool "ring transit sampled" true (s.Metrics.n >= 1)
  | None -> Alcotest.fail "no net.ring.transit histogram");
  check bool "ring bytes counted" true (Metrics.counter_total m ~name:"net.ring.link_bytes" > 0)

let test_sched_integration () =
  let c = Center.create ~nodes:4 () in
  let tr = Tracer.create ~now:(fun () -> Engine.now c.Center.eng) () in
  Instance.set_tracer c.Center.root (Some tr);
  ignore
    (Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:2 ()) ~payload:(Job.Sleep 1.0)
      : Job.t);
  Center.run c;
  check int "allocated traced" 1 (Tracer.count tr ~cat:"sched" ~name:"job.allocated");
  check int "running traced" 1 (Tracer.count tr ~cat:"sched" ~name:"job.running");
  check int "complete traced" 1 (Tracer.count tr ~cat:"sched" ~name:"job.complete");
  check bool "cycles traced" true (Tracer.count tr ~cat:"sched" ~name:"cycle" >= 1)

let () =
  Alcotest.run "flux_trace"
    [
      ( "tracer",
        [
          Alcotest.test_case "emit and count" `Quick test_emit_and_count;
          Alcotest.test_case "capacity bound" `Quick test_capacity_bound;
          Alcotest.test_case "subscribers" `Quick test_subscribers;
          Alcotest.test_case "causal context ids" `Quick test_ctx_ids;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick test_export_roundtrip;
          Alcotest.test_case "nested field roundtrip" `Quick test_event_json_nested;
          Alcotest.test_case "perfetto wellformed" `Quick test_perfetto_wellformed;
          Alcotest.test_case "summary" `Quick test_summary_table;
          Alcotest.test_case "counters csv" `Quick test_counters_csv;
          Alcotest.test_case "fault counters csv" `Quick test_fault_counters_csv;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_metrics_counters_gauges;
          Alcotest.test_case "percentiles vs oracle" `Quick test_metrics_percentiles;
          Alcotest.test_case "csv and json export" `Quick test_metrics_csv_format;
        ] );
      ( "integration",
        [
          Alcotest.test_case "session" `Quick test_session_integration;
          Alcotest.test_case "kvs" `Quick test_kvs_integration;
          Alcotest.test_case "ctx across retransmit" `Quick test_ctx_propagation_retransmit;
          Alcotest.test_case "fence critical path" `Quick test_fence_critical_path;
          Alcotest.test_case "session metrics" `Quick test_session_metrics;
          Alcotest.test_case "scheduler" `Quick test_sched_integration;
        ] );
    ]
