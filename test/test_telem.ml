(* Tests for the live telemetry plane: Metrics snapshot algebra against
   a brute-force oracle (qcheck), the Series/Detect/Flight building
   blocks, and the end-to-end Flux_harness.Telem fault scenarios the plane
   exists to catch. *)

module Json = Flux_json.Json
module Tracer = Flux_trace.Tracer
module Export = Flux_trace.Export
module Metrics = Flux_trace.Metrics
module Series = Flux_trace.Series
module Detect = Flux_trace.Detect
module Flight = Flux_trace.Flight
module KTelem = Flux_harness.Telem
module Tmod = Flux_modules.Telem
module Engine = Flux_sim.Engine
module Session = Flux_cmb.Session

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* --- Snapshot algebra vs a brute-force oracle ----------------------------- *)

(* Registry operations with dyadic-rational float values (k / 16): float
   addition over them is exact at these magnitudes, so oracle sums and
   merged sums agree bit-for-bit regardless of association order. *)
type op =
  | Add of string * int * int
  | Gauge of string * int * float
  | Obs of string * int * float

let apply m = function
  | Add (name, rank, n) -> Metrics.add m ~name ~rank n
  | Gauge (name, rank, v) -> Metrics.set_gauge m ~name ~rank v
  | Obs (name, rank, v) -> Metrics.observe m ~name ~rank v

let op_gen =
  QCheck.Gen.(
    let name = map (Printf.sprintf "m%d") (int_range 0 3) in
    let rank = int_range 0 3 in
    (* Observation magnitudes straddle the histogram's lowest bucket
       boundary (~1 ns) so bucket-edge cases are exercised; both scales
       are dyadic (k * 2^-4 and k * 2^-30) so mixed-scale sums stay
       exact — 2^-30 sits well inside a double's 52-bit mantissa even
       against the ~2^8 totals these lists reach. *)
    let mag =
      oneof
        [
          map (fun k -> float_of_int k /. 16.0) (int_range 0 64);
          map (fun k -> Float.ldexp (float_of_int k) (-30)) (int_range 0 8);
        ]
    in
    oneof
      [
        map3 (fun n r v -> Add (n, r, v)) name rank (int_range 0 100);
        map3 (fun n r v -> Gauge (n, r, v)) name rank mag;
        map3 (fun n r v -> Obs (n, r, v)) name rank mag;
      ])

let ops_arb = QCheck.make QCheck.Gen.(list_size (int_range 0 80) op_gen)

let snap_of_ops ops =
  let m = Metrics.create () in
  List.iter (apply m) ops;
  Metrics.snapshot m

let hist_snap_eq (a : Metrics.hist_snap) (b : Metrics.hist_snap) =
  a.Metrics.hs_buckets = b.Metrics.hs_buckets
  && a.Metrics.hs_count = b.Metrics.hs_count
  && a.Metrics.hs_sum = b.Metrics.hs_sum
  && a.Metrics.hs_min = b.Metrics.hs_min
  && a.Metrics.hs_max = b.Metrics.hs_max

(* The algebra suppresses zero counters (a zero delta is noise on the
   wire), while a raw registry snapshot keeps any cell ever touched —
   compare modulo that normalization. *)
let strip_zeros (s : Metrics.snap) =
  { s with Metrics.sn_counters = List.filter (fun (_, v) -> v <> 0) s.Metrics.sn_counters }

let snap_eq a b =
  let a = strip_zeros a and b = strip_zeros b in
  a.Metrics.sn_counters = b.Metrics.sn_counters
  && a.Metrics.sn_gauges = b.Metrics.sn_gauges
  && List.length a.Metrics.sn_hists = List.length b.Metrics.sn_hists
  && List.for_all2
       (fun (ka, ha) (kb, hb) -> ka = kb && hist_snap_eq ha hb)
       a.Metrics.sn_hists b.Metrics.sn_hists

let prop_merge_matches_oracle =
  QCheck.Test.make ~name:"merge a b = snapshot of (ops_a; ops_b)" ~count:300
    (QCheck.pair ops_arb ops_arb)
    (fun (ops_a, ops_b) ->
      (* Counters sum, gauges right-biased, histograms bucket-add: all
         three are exactly what one registry fed both op streams (b
         after a) reports. *)
      let merged = Metrics.merge (snap_of_ops ops_a) (snap_of_ops ops_b) in
      let oracle = snap_of_ops (ops_a @ ops_b) in
      snap_eq merged oracle)

let prop_diff_then_merge_roundtrips =
  QCheck.Test.make ~name:"merge base (diff ~base next) = next" ~count:300
    (QCheck.pair ops_arb ops_arb)
    (fun (ops_base, ops_more) ->
      let base = snap_of_ops ops_base in
      let next = snap_of_ops (ops_base @ ops_more) in
      snap_eq (Metrics.merge base (Metrics.diff ~base next)) next)

let prop_codec_roundtrips =
  QCheck.Test.make ~name:"snap_of_json (snap_to_json s) = s" ~count:300 ops_arb
    (fun ops ->
      let s = snap_of_ops ops in
      snap_eq (Metrics.snap_of_json (Json.of_string (Json.to_string (Metrics.snap_to_json s)))) s)

let test_rank_slice_snapshot () =
  let m = Metrics.create () in
  Metrics.add m ~name:"c" ~rank:1 5;
  Metrics.add m ~name:"c" ~rank:2 7;
  Metrics.observe m ~name:"h" ~rank:2 0.5;
  let s = Metrics.snapshot ~rank:2 m in
  check (Alcotest.list (Alcotest.pair (Alcotest.pair string int) int)) "only rank 2 counters"
    [ (("c", 2), 7) ]
    s.Metrics.sn_counters

let test_family_handles_alias_named_api () =
  let m = Metrics.create () in
  let c = Metrics.counter_family m ~name:"c" in
  let g = Metrics.gauge_family m ~name:"g" in
  let h = Metrics.hist_family m ~name:"h" in
  Metrics.family_add c ~rank:3 4;
  Metrics.family_incr c ~rank:3;
  Metrics.incr m ~name:"c" ~rank:3;
  check int "family and named updates share cells" 6 (Metrics.counter m ~name:"c" ~rank:3);
  Metrics.family_set_gauge g ~rank:1 2.5;
  check (Alcotest.option (Alcotest.float 0.0)) "gauge through handle" (Some 2.5)
    (Metrics.gauge m ~name:"g" ~rank:1);
  check (Alcotest.option (Alcotest.float 0.0)) "family_gauge reads back" (Some 2.5)
    (Metrics.family_gauge g ~rank:1);
  Metrics.family_observe h ~rank:0 1.0;
  Metrics.observe m ~name:"h" ~rank:0 1.0;
  match Metrics.summary m ~name:"h" ~rank:0 with
  | Some s -> check int "observations share the histogram" 2 s.Metrics.n
  | None -> Alcotest.fail "no summary"

(* --- Series ---------------------------------------------------------------- *)

let snap_counter name rank v =
  { Metrics.snap_empty with Metrics.sn_counters = [ ((name, rank), v) ] }

let test_series_bounded_window () =
  let s = Series.create ~window:4 () in
  for e = 1 to 10 do
    Series.record s ~epoch:e (snap_counter "tx" 0 e)
  done;
  let pts = Series.tail_scalars s ~name:"tx" ~n:10 in
  check int "window bounds retention" 4 (List.length pts);
  (match pts with
  | (e, v) :: _ ->
    check int "oldest retained epoch" 7 e;
    check (Alcotest.float 0.0) "counter delta kept" 7.0 v
  | [] -> Alcotest.fail "expected counter points");
  check (Alcotest.option (Alcotest.pair int (Alcotest.float 0.0))) "last epoch"
    (Some (10, 10.0)) (Series.latest_scalar s ~name:"tx");
  check
    (Alcotest.list (Alcotest.pair int (Alcotest.float 0.0)))
    "tail scalars"
    [ (9, 9.0); (10, 10.0) ]
    (Series.tail_scalars s ~name:"tx" ~n:2)

let test_series_gauge_rollup_and_render () =
  let s = Series.create () in
  Series.record s ~epoch:1
    { Metrics.snap_empty with Metrics.sn_gauges = [ (("q", 1), 2.0); (("q", 2), 6.0) ] };
  (match Series.latest s ~name:"q" with
  | Some (1, Series.P_gauge g) ->
    check (Alcotest.float 0.0) "gauge min" 2.0 g.Series.gp_min;
    check (Alcotest.float 0.0) "gauge max" 6.0 g.Series.gp_max;
    check int "gauge n" 2 g.Series.gp_n
  | _ -> Alcotest.fail "expected gauge point");
  let csv = Series.to_csv s in
  check bool "csv has header" true
    (String.length csv > 0 && String.sub csv 0 6 = "metric");
  check bool "render_top mentions the metric" true
    (try
       ignore (Str.search_forward (Str.regexp_string "q") (Series.render_top s) 0);
       true
     with Not_found -> false)

(* --- Detectors ------------------------------------------------------------- *)

let test_detect_stragglers () =
  (* Median 1.0, MAD 0.0 floored at 1% of median: rank 7 at 10x is far
     beyond median + 4 * 0.01. *)
  let per_rank = [ (1, 1.0); (2, 1.0); (3, 1.0); (4, 1.0); (7, 10.0) ] in
  (match Detect.stragglers ~k:4.0 ~epoch:5 ~metric:"work" per_rank with
  | [ a ] ->
    check int "rank flagged" 7 a.Detect.al_rank;
    check int "epoch carried" 5 a.Detect.al_epoch;
    check string "metric carried" "work" a.Detect.al_metric;
    check bool "value above threshold" true (a.Detect.al_value > a.Detect.al_threshold)
  | l -> Alcotest.failf "expected one straggler, got %d" (List.length l));
  (* One-sided: a fast outlier is not an anomaly. *)
  check int "fast rank not flagged" 0
    (List.length
       (Detect.stragglers ~k:4.0 ~epoch:1 ~metric:"work"
          [ (1, 1.0); (2, 1.0); (3, 1.0); (4, 0.01) ]));
  (* Fewer than 3 ranks: no distribution, no alerts. *)
  check int "two ranks never alert" 0
    (List.length (Detect.stragglers ~k:4.0 ~epoch:1 ~metric:"work" [ (1, 1.0); (2, 100.0) ]))

let test_detect_queue_growth () =
  let rising = [ (1, 1.0); (2, 3.0); (3, 5.0); (4, 7.0) ] in
  (match Detect.queue_growth ~slope_threshold:1.5 ~epoch:4 ~metric:"q" rising with
  | [ a ] ->
    check int "center-level rank" (-1) a.Detect.al_rank;
    check (Alcotest.float 1e-9) "slope reported" 2.0 a.Detect.al_value
  | l -> Alcotest.failf "expected one growth alert, got %d" (List.length l));
  check int "below threshold quiet" 0
    (List.length (Detect.queue_growth ~slope_threshold:2.5 ~epoch:4 ~metric:"q" rising));
  check int "too few points quiet" 0
    (List.length
       (Detect.queue_growth ~slope_threshold:0.1 ~epoch:2 ~metric:"q" [ (1, 0.0); (2, 9.0) ]))

let test_detect_silent_ranks () =
  match
    Detect.silent_ranks ~epoch:3 ~expected:[ 0; 1; 2; 3; 4 ] ~heard:[ 0; 2; 4 ] ~down:[ 3 ]
  with
  | [ a ] ->
    check int "unheard not-down rank" 1 a.Detect.al_rank;
    check bool "is silent kind" true (a.Detect.al_kind = Detect.Silent)
  | l -> Alcotest.failf "expected one silent alert, got %d" (List.length l)

(* --- Flight recorder -------------------------------------------------------- *)

let test_flight_ring_and_dedup () =
  let clock = ref 0.0 in
  let tr = Tracer.create ~now:(fun () -> !clock) () in
  let f = Flight.create ~capacity:3 tr in
  for i = 1 to 5 do
    clock := float_of_int i;
    Tracer.emit tr ~cat:"w" ~name:"item" ~rank:2 ~fields:[ ("i", Json.int i) ] ();
    Tracer.emit tr ~cat:"w" ~name:"item" ~rank:4 ~fields:[ ("i", Json.int i) ] ()
  done;
  (* Per-rank rings are independent and capacity-bounded, oldest first. *)
  let ring = Flight.recent f ~rank:2 in
  check int "ring holds capacity" 3 (List.length ring);
  check int "oldest retained is i=3" 3
    (Json.to_int (List.assoc "i" (List.hd ring).Tracer.ev_fields));
  let d = Flight.dump f ~rank:4 ~reason:"test" in
  check int "dump rank" 4 d.Flight.d_rank;
  check int "dump events" 3 (List.length d.Flight.d_events);
  (* dump tags a flight.dump instant back into the tracer. *)
  check int "dump traced" 1 (Tracer.count tr ~cat:"flight" ~name:"dump");
  (* dump_once dedups per (rank, tag). *)
  check bool "first dump_once taken" true
    (Flight.dump_once f ~rank:2 ~tag:"straggler" ~reason:"alert" <> None);
  check bool "second dump_once suppressed" true
    (Flight.dump_once f ~rank:2 ~tag:"straggler" ~reason:"alert" = None);
  check bool "other tag still dumps" true
    (Flight.dump_once f ~rank:2 ~tag:"silent" ~reason:"alert" <> None);
  check int "dumps recorded" 3 (List.length (Flight.dumps f));
  (* The Perfetto export is well-formed JSON with one row per event. *)
  let doc = Json.of_string (Flight.dump_to_perfetto d) in
  check bool "perfetto rows" true
    (List.length (Json.to_list (Json.member "traceEvents" doc)) >= 3)

let test_tracer_overflow_surfaces_in_summary () =
  let tr = Tracer.create ~capacity:5 ~now:(fun () -> 0.0) () in
  for i = 1 to 9 do
    Tracer.emit tr ~cat:"c" ~name:"n" ~fields:[ ("i", Json.int i) ] ()
  done;
  (* Overflow is a first-class counter, not just a buffer statistic... *)
  check int "trace.dropped counter" 4 (Tracer.count tr ~cat:"trace" ~name:"dropped");
  (* ...and the human-facing summary warns that the stream is truncated. *)
  let s = Export.summary tr in
  check bool "summary flags the drop" true
    (try
       ignore (Str.search_forward (Str.regexp "4 events dropped") s 0);
       true
     with Not_found -> false)

(* --- End-to-end: the harness's fault scenarios ------------------------------ *)

let run_quiet cfg = KTelem.run cfg

let check_clean label (r : KTelem.report) =
  if r.KTelem.t_violations <> [] then
    Alcotest.failf "%s violations: %s" label (String.concat "; " r.KTelem.t_violations)

let test_harness_straggler_alert_within_two_epochs () =
  let r = run_quiet KTelem.straggler_case in
  check_clean "straggler" r;
  check bool "straggler alerts fired" true (r.KTelem.t_stragglers >= 1);
  check bool "alert within 2 epochs of onset" true
    (r.KTelem.t_first_straggler_epoch >= r.KTelem.t_onset_epoch
    && r.KTelem.t_first_straggler_epoch <= r.KTelem.t_onset_epoch + 2);
  check bool "rollups flowed in-band" true (r.KTelem.t_rollup_bytes > 0);
  check int "no late contributions dropped" 0 r.KTelem.t_late_drops

let test_harness_killed_rank_flight_dump () =
  let r = run_quiet KTelem.kill_case in
  check_clean "kill" r;
  check bool "victim dump captured its last events" true (r.KTelem.t_victim_dump_events > 0);
  check bool "a dump was recorded" true (r.KTelem.t_dumps >= 1)

let test_harness_silent_rank_detected () =
  let r = run_quiet KTelem.silent_case in
  check_clean "silent" r;
  check bool "silent alerts fired" true (r.KTelem.t_silent >= 1)

let test_harness_queue_growth_detected () =
  let r = run_quiet KTelem.growth_case in
  check_clean "growth" r;
  check bool "growth alerts fired" true (r.KTelem.t_growth >= 1)

let test_harness_deterministic () =
  let a = run_quiet KTelem.straggler_case in
  let b = run_quiet KTelem.straggler_case in
  check string "alert fingerprint identical" a.KTelem.t_alert_fingerprint
    b.KTelem.t_alert_fingerprint;
  check int "engine fingerprint identical" a.KTelem.t_events b.KTelem.t_events;
  check string "rollup series identical" (Series.to_csv a.KTelem.t_series)
    (Series.to_csv b.KTelem.t_series)

let test_harness_rejects_bad_config () =
  let expect_invalid label cfg =
    match KTelem.run cfg with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  expect_invalid "size" { KTelem.default with KTelem.size = 3 };
  expect_invalid "interval" { KTelem.default with KTelem.interval = 0.0 };
  expect_invalid "straggler rank" { KTelem.default with KTelem.straggler = Some (99, 10.0) };
  expect_invalid "straggler factor" { KTelem.default with KTelem.straggler = Some (5, 1.0) };
  expect_invalid "onset" { KTelem.default with KTelem.onset_frac = 1.0 };
  expect_invalid "kill rank" { KTelem.default with KTelem.kill = Some 0 }

(* Rank 0 revives as a child of rank 1, which kept the overlay root:
   every epoch reduces up to rank 1 and is handed to rank 0 whole, so
   no live rank looks silent and no partial arrives late. *)
let test_rank0_revived_under_moved_root () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:7 () in
  let ts = Tmod.load sess ~config:{ Tmod.default_config with Tmod.interval = 0.1 } () in
  Tmod.set_metrics_all ts (Metrics.create ());
  (* Epoch k ticks at k * 0.1 s: 11 is the first after the revival. *)
  let settled = 12 in
  let late_at_settled = ref (-1) in
  Tmod.on_rollup ts (fun e -> if e = settled then late_at_settled := Tmod.late_drops ts);
  Tmod.start ~until:3.0 ts;
  ignore (Engine.schedule eng ~delay:0.55 (fun () -> Session.mark_down sess 0) : Engine.handle);
  ignore (Engine.schedule eng ~delay:1.05 (fun () -> Session.mark_up sess 0) : Engine.handle);
  Engine.run eng;
  check (Alcotest.option int) "rank 1 kept the root" None
    (Session.tree_parent (Session.broker sess 1));
  check bool "the settled epoch finalized" true (!late_at_settled >= 0);
  check bool "later epochs finalized" true (Tmod.epochs_completed ts >= 15);
  let silent =
    List.filter
      (fun (a : Detect.alert) -> a.Detect.al_kind = Detect.Silent && a.Detect.al_epoch >= settled)
      (Tmod.alerts ts)
  in
  check (Alcotest.list int) "no live rank silent" [] (List.map (fun a -> a.Detect.al_rank) silent);
  check int "no late drops once settled" !late_at_settled (Tmod.late_drops ts)

let () =
  Alcotest.run "flux_telem"
    [
      ( "snapshot-algebra",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_merge_matches_oracle;
            prop_diff_then_merge_roundtrips;
            prop_codec_roundtrips;
          ]
        @ [
            Alcotest.test_case "rank-slice snapshot" `Quick test_rank_slice_snapshot;
            Alcotest.test_case "family handles alias named api" `Quick
              test_family_handles_alias_named_api;
          ] );
      ( "series",
        [
          Alcotest.test_case "bounded window" `Quick test_series_bounded_window;
          Alcotest.test_case "gauge rollup and render" `Quick test_series_gauge_rollup_and_render;
        ] );
      ( "detect",
        [
          Alcotest.test_case "stragglers" `Quick test_detect_stragglers;
          Alcotest.test_case "queue growth" `Quick test_detect_queue_growth;
          Alcotest.test_case "silent ranks" `Quick test_detect_silent_ranks;
        ] );
      ( "flight",
        [
          Alcotest.test_case "per-rank rings and dedup" `Quick test_flight_ring_and_dedup;
          Alcotest.test_case "tracer overflow in summary" `Quick
            test_tracer_overflow_surfaces_in_summary;
        ] );
      ( "harness",
        [
          Alcotest.test_case "straggler alert within 2 epochs" `Quick
            test_harness_straggler_alert_within_two_epochs;
          Alcotest.test_case "killed rank flight dump" `Quick test_harness_killed_rank_flight_dump;
          Alcotest.test_case "silent rank detected" `Quick test_harness_silent_rank_detected;
          Alcotest.test_case "queue growth detected" `Quick test_harness_queue_growth_detected;
          Alcotest.test_case "same seed, same alerts" `Quick test_harness_deterministic;
          Alcotest.test_case "config validation" `Quick test_harness_rejects_bad_config;
        ] );
      ( "rollup",
        [
          Alcotest.test_case "rank 0 revived under the moved root" `Quick
            test_rank0_revived_under_moved_root;
        ] );
    ]
