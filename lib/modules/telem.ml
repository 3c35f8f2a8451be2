module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Rollup = Flux_cmb.Rollup
module Engine = Flux_sim.Engine
module Metrics = Flux_trace.Metrics
module Series = Flux_trace.Series
module Detect = Flux_trace.Detect
module Flight = Flux_trace.Flight
module Tracer = Flux_trace.Tracer

(* Live telemetry plane: in-band TBON metric rollups.

   [mon] ships one scripted scalar per heartbeat; this module ships
   whole {!Metrics} registry slices over the same {!Rollup}. Every
   [interval] sim-seconds each rank snapshots its own slice of the
   registry, diffs it against the previous epoch's snapshot, and
   contributes the delta. The rollup merges child deltas hop by hop
   (once per child, a partial on a depth-scaled window, late arrivals
   dropped), so rank 0 receives one merged cross-rank delta per epoch
   over O(log n) hops — the paper's reduction network carrying the
   center's run-time information instead of a side channel.

   At rank 0 the merged delta lands in a bounded {!Series} store and
   the {!Detect} detectors run: stragglers, queue-growth trends,
   silent ranks. Alerts become [telem.alert] trace events, counters,
   and (first occurrence per rank and cause) {!Flight} dumps, so the
   plane closes the loop from raw metric to preserved evidence.

   Everything is opt-in: nothing samples until {!start}, and a session
   that never loads the module is bit-for-bit unchanged. *)

type config = {
  interval : float; (* sim-seconds between rollup epochs *)
  window : int; (* series ring capacity and trend window *)
  slope_threshold : float; (* queue-growth units/epoch *)
  straggler_metrics : string list;
  queue_metrics : string list;
}

let default_config =
  {
    interval = 0.1;
    window = 64;
    slope_threshold = 1.0;
    straggler_metrics = [];
    queue_metrics = [];
  }

(* Flag ranks beyond median + k * MAD. *)
let straggler_k = 4.0

(* One hop's payload: the merged delta plus the ranks it covers. The
   rank list is carried explicitly because a live rank with a
   zero-change epoch still has an empty delta — coverage cannot be
   inferred from the snap itself, and the silent-rank detector needs
   exactly that distinction. *)
type contribution = { c_ranks : int list; c_snap : Metrics.snap }

let contrib_merge a b =
  {
    c_ranks = List.sort_uniq compare (a.c_ranks @ b.c_ranks);
    c_snap = Metrics.merge a.c_snap b.c_snap;
  }

type t = {
  b : Session.broker;
  cfg : config;
  rollup : contribution Rollup.t;
  mutable epoch : int; (* local epoch counter, advances every tick *)
  mutable last_snap : Metrics.snap;
  mutable metrics : Metrics.t option;
  mutable tracer : Tracer.t option;
  mutable flight : Flight.t option;
  mutable timer : Engine.handle option;
  mutable sent_bytes : int;
  mutable late : int;
  (* master-only state *)
  series : Series.t;
  mutable alerts : Detect.alert list; (* newest first *)
  mutable rollups : int;
  mutable alert_subs : (Detect.alert -> unit) list; (* registration order *)
  mutable rollup_subs : (int -> unit) list;
}

let set_metrics_all ts m = Array.iter (fun t -> t.metrics <- Some m) ts

(* Subscriptions live on the rollup master (rank 0): that is where
   epochs finalize and alerts are raised. Callbacks run synchronously
   inside the finalize, in registration order, so a same-seed run
   replays the identical alert->action sequence. *)
let on_alert ts f = ts.(0).alert_subs <- ts.(0).alert_subs @ [ f ]
let on_rollup ts f = ts.(0).rollup_subs <- ts.(0).rollup_subs @ [ f ]
let set_tracer_all ts tr = Array.iter (fun t -> t.tracer <- Some tr) ts
let set_flight_all ts f = Array.iter (fun t -> t.flight <- Some f) ts

(* Per-rank values the straggler detector compares: histogram means
   from this epoch's delta when the metric has one (latency-style
   metrics), the per-rank gauge last-values otherwise. *)
let straggler_values snap ~metric =
  let from_hists =
    Metrics.snap_hists_of snap ~name:metric
    |> List.filter_map (fun (r, hs) ->
           if hs.Metrics.hs_count > 0 then
             Some (r, hs.Metrics.hs_sum /. float_of_int hs.Metrics.hs_count)
           else None)
  in
  if from_hists <> [] then from_hists else Metrics.snap_gauges_of snap ~name:metric

let handle_alert t al =
  t.alerts <- al :: t.alerts;
  (match t.tracer with
  | Some tr ->
    Tracer.emit tr ~cat:"telem" ~name:"alert" ~rank:al.Detect.al_rank
      ~fields:(Detect.alert_fields al) ()
  | None -> ());
  (match t.metrics with
  | Some m ->
    Metrics.incr m
      ~name:("telem.alert." ^ Detect.kind_to_string al.Detect.al_kind)
      ~rank:(Session.rank t.b)
  | None -> ());
  (* First alert per (rank, kind:metric) preserves the evidence: the
     flight recorder dumps the rank's recent events exactly once even
     when a persistent straggler re-fires every epoch. *)
  (match t.flight with
  | Some f when al.Detect.al_rank >= 0 ->
    ignore
      (Flight.dump_once f ~rank:al.Detect.al_rank
         ~tag:(Detect.kind_to_string al.Detect.al_kind ^ ":" ^ al.Detect.al_metric)
         ~reason:(Format.asprintf "%a" Detect.pp_alert al)
        : Flight.dump option)
  | _ -> ());
  List.iter (fun f -> f al) t.alert_subs

let finalize t epoch c =
  t.rollups <- t.rollups + 1;
  Series.record t.series ~epoch c.c_snap;
  let sess = Session.session_of t.b in
  let stragglers =
    List.concat_map
      (fun metric ->
        Detect.stragglers ~k:straggler_k ~epoch ~metric
          (straggler_values c.c_snap ~metric))
      t.cfg.straggler_metrics
  in
  let growth =
    List.concat_map
      (fun metric ->
        Detect.queue_growth ~slope_threshold:t.cfg.slope_threshold ~epoch ~metric
          (Series.tail_scalars t.series ~name:metric ~n:t.cfg.window))
      t.cfg.queue_metrics
  in
  let expected = List.init (Session.size sess) Fun.id in
  let down = List.filter (Session.is_down sess) expected in
  let silent = Detect.silent_ranks ~epoch ~expected ~heard:c.c_ranks ~down in
  let alerts = stragglers @ growth @ silent in
  (match t.tracer with
  | Some tr ->
    Tracer.emit tr ~cat:"telem" ~name:"rollup" ~rank:(Session.rank t.b)
      ~fields:
        [
          ("epoch", Json.int epoch);
          ("ranks", Json.int (List.length c.c_ranks));
          ("alerts", Json.int (List.length alerts));
        ]
      ()
  | None -> ());
  List.iter (handle_alert t) alerts;
  List.iter (fun f -> f epoch) t.rollup_subs

let on_tick t =
  (* The epoch counter advances even while this rank is down so a
     revived rank rejoins the cluster-wide epoch numbering instead of
     contributing stale epochs forever. *)
  t.epoch <- t.epoch + 1;
  let sess = Session.session_of t.b in
  let rank = Session.rank t.b in
  if not (Session.is_down sess rank) then begin
    (match t.metrics with
    | Some m -> Metrics.incr m ~name:"telem.ticks" ~rank
    | None -> ());
    let next =
      match t.metrics with None -> Metrics.snap_empty | Some m -> Metrics.snapshot ~rank m
    in
    let delta = Metrics.diff ~base:t.last_snap next in
    t.last_snap <- next;
    Rollup.contribute t.rollup ~rank ~epoch:t.epoch { c_ranks = [ rank ]; c_snap = delta }
  end

(* The rollup's own cost is part of the telemetry it carries: wire
   bytes are charged per sending rank, so the overhead of the plane
   shows up in its own series. *)
let charge t bytes =
  t.sent_bytes <- t.sent_bytes + bytes;
  match t.metrics with
  | Some m ->
    let rank = Session.rank t.b in
    Metrics.add m ~name:"telem.rollup.bytes" ~rank bytes;
    Metrics.incr m ~name:"telem.rollup.msgs" ~rank
  | None -> ()

(* A late contribution is dropped; rank 0 flags the gap as a silent
   rank if the straggling subtree matters. *)
let count_late t =
  t.late <- t.late + 1;
  match t.metrics with
  | Some m -> Metrics.incr m ~name:"telem.late_drop" ~rank:(Session.rank t.b)
  | None -> ()

let contribution_fields c =
  [ ("ranks", Json.list (List.map Json.int c.c_ranks)); ("snap", Metrics.snap_to_json c.c_snap) ]

let contribution_of_json p =
  {
    c_ranks = List.map Json.to_int (Json.to_list (Json.member "ranks" p));
    c_snap = Metrics.snap_of_json (Json.member "snap" p);
  }

let load sess ?(config = default_config) () =
  if config.interval <= 0.0 then invalid_arg "Telem.load: interval must be positive";
  if config.window <= 0 then invalid_arg "Telem.load: window must be positive";
  (* The rollup's callbacks reach the instances, which hold it. *)
  let ts = ref [||] in
  let rollup =
    Rollup.create sess ~service:"telem" ~window:(config.interval /. 2.0) ~merge:contrib_merge
      ~to_fields:contribution_fields ~of_json:contribution_of_json
      ~on_send:(fun rank bytes -> charge !ts.(rank) bytes)
      ~on_late:(fun rank -> count_late !ts.(rank))
      ~finalize:(fun epoch c -> finalize !ts.(0) epoch c)
      ()
  in
  let instances =
    Array.init (Session.size sess) (fun r ->
        {
          b = Session.broker sess r;
          cfg = config;
          rollup;
          epoch = 0;
          last_snap = Metrics.snap_empty;
          metrics = None;
          tracer = None;
          flight = None;
          timer = None;
          sent_bytes = 0;
          late = 0;
          series = Series.create ~window:config.window ();
          alerts = [];
          rollups = 0;
          alert_subs = [];
          rollup_subs = [];
        })
  in
  ts := instances;
  (* The moment a rank is marked down its recent history is still in
     the flight ring; dump it before the trace moves on. *)
  Session.add_liveness_watch sess (fun r up ->
      if not up then
        match instances.(0).flight with
        | Some f -> ignore (Flight.dump f ~rank:r ~reason:"mark_down" : Flight.dump)
        | None -> ());
  instances

(* Fault injection for harnesses: the rank's telemetry agent dies
   while its broker stays up — exactly the "expected sample missing
   without a mark_down" case the silent-rank detector exists for. *)
let silence t =
  Option.iter Engine.cancel t.timer;
  t.timer <- None

let mute ts ~rank = silence ts.(rank)
let stop ts = Array.iter silence ts

let start ?until ts =
  Array.iter
    (fun t ->
      match t.timer with
      | Some _ -> ()
      | None ->
        t.timer <-
          Some (Engine.every (Session.b_engine t.b) ~period:t.cfg.interval (fun () -> on_tick t)))
    ts;
  match until with
  | None -> ()
  | Some d ->
    if d <= 0.0 then invalid_arg "Telem.start: until must be positive";
    ignore
      (Engine.schedule (Session.b_engine ts.(0).b) ~delay:d (fun () -> stop ts)
        : Engine.handle)

let series ts = ts.(0).series
let alerts ts = List.rev ts.(0).alerts
let epochs_completed ts = ts.(0).rollups
let rollup_bytes ts = Array.fold_left (fun acc t -> acc + t.sent_bytes) 0 ts
let late_drops ts = Array.fold_left (fun acc t -> acc + t.late) 0 ts
