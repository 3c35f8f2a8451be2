module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Topic = Flux_cmb.Topic
module Engine = Flux_sim.Engine
module Metrics = Flux_trace.Metrics
module Series = Flux_trace.Series
module Detect = Flux_trace.Detect
module Flight = Flux_trace.Flight
module Tracer = Flux_trace.Tracer

(* Live telemetry plane: in-band TBON metric rollups.

   [mon] ships one scripted scalar per heartbeat; this module
   generalizes its epoch scheme to whole {!Metrics} registry slices.
   Every [interval] sim-seconds each rank snapshots its own slice of
   the registry, diffs it against the previous epoch's snapshot, and
   sends the delta up the tree. Interior ranks merge child deltas with
   their own (dedup'd per child, partial-forwarded on a window
   timeout, exactly [mon]'s accumulator discipline) so the root
   receives one merged cross-rank delta per epoch over O(log n) hops —
   the paper's reduction network carrying the center's run-time
   information instead of a side channel.

   At the root the merged delta lands in a bounded {!Series} store and
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

type epoch_acc = {
  mutable acc : contribution option;
  mutable heard : int list;
  mutable timer_armed : bool;
}

type t = {
  b : Session.broker;
  master : bool;
  cfg : config;
  epochs : (int, epoch_acc) Hashtbl.t;
  mutable forwarded_upto : int; (* late contributions for <= this are dropped *)
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

(* Partial-forward timeout for an epoch's reduction. *)
let reduce_window t = t.cfg.interval /. 2.0

let set_metrics t m = t.metrics <- m
let set_metrics_all ts m = Array.iter (fun t -> set_metrics t (Some m)) ts

(* Subscriptions live on the rollup master (rank 0): that is where
   epochs finalize and alerts are raised. Callbacks run synchronously
   inside the finalize, in registration order, so a same-seed run
   replays the identical alert->action sequence. *)
let on_alert ts f = ts.(0).alert_subs <- ts.(0).alert_subs @ [ f ]
let on_rollup ts f = ts.(0).rollup_subs <- ts.(0).rollup_subs @ [ f ]
let set_tracer_all ts tr = Array.iter (fun t -> t.tracer <- Some tr) ts
let set_flight_all ts f = Array.iter (fun t -> t.flight <- Some f) ts

let acc_get t epoch =
  match Hashtbl.find_opt t.epochs epoch with
  | Some a -> a
  | None ->
    let a = { acc = None; heard = []; timer_armed = false } in
    Hashtbl.replace t.epochs epoch a;
    a

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

let forward t epoch a =
  match a.acc with
  | None -> Hashtbl.remove t.epochs epoch
  | Some c ->
    a.acc <- None;
    Hashtbl.remove t.epochs epoch;
    if epoch > t.forwarded_upto then t.forwarded_upto <- epoch;
    if t.master then finalize t epoch c
    else begin
      let payload =
        Json.obj
          [
            ("epoch", Json.int epoch);
            ("ranks", Json.list (List.map Json.int c.c_ranks));
            ("snap", Metrics.snap_to_json c.c_snap);
          ]
      in
      (* The rollup's own cost is part of the telemetry it carries:
         wire bytes are charged per sending rank, so the overhead of
         the plane shows up in its own series. *)
      let bytes = Json.serialized_size payload in
      t.sent_bytes <- t.sent_bytes + bytes;
      (match t.metrics with
      | Some m ->
        let rank = Session.rank t.b in
        Metrics.add m ~name:"telem.rollup.bytes" ~rank bytes;
        Metrics.incr m ~name:"telem.rollup.msgs" ~rank
      | None -> ());
      (* Safe to retransmit: the parent folds at most one contribution
         per (child, epoch) — the [heard] guard in [contribute]. *)
      Session.request_from_module t.b ~idempotent:true ~topic:"telem.reduce" payload
        ~reply:(fun _ -> ())
    end

let check_ready t epoch a =
  let sess = Session.session_of t.b in
  let children = Session.tree_children t.b in
  (* A dead child will never report; waiting for it would stall every
     epoch until the window timeout. Known-down children are excused —
     the root's silent-rank detector still sees the coverage gap. *)
  let all_heard =
    List.for_all (fun c -> Session.is_down sess c || List.mem c a.heard) children
  in
  if all_heard then forward t epoch a

(* Partial-forward timeouts must fire child-before-parent or a slow
   subtree's partial arrives just after its parent already forwarded
   and is dropped as late all the way up. Scale each node's window by
   how far it is from the leaves (approximated from the static tree
   shape), so deeper accumulators give up first and their partials
   still make the next hop's deadline. *)
let levels t =
  let sess = Session.session_of t.b in
  let f = max 2 (Session.fanout sess) in
  let n = Session.size sess in
  int_of_float (ceil (log (float_of_int (max 2 n)) /. log (float_of_int f)))

let depth_of t =
  let sess = Session.session_of t.b in
  let rec go b acc =
    match Session.tree_parent b with
    | None -> acc
    | Some p -> go (Session.broker sess p) (acc + 1)
  in
  go t.b 0

let arm_timer t epoch a =
  if not a.timer_armed then begin
    a.timer_armed <- true;
    let mult = max 1 (1 + levels t - depth_of t) in
    ignore
      (Engine.schedule (Session.b_engine t.b)
         ~delay:(reduce_window t *. float_of_int mult)
         (fun () -> forward t epoch a)
        : Engine.handle)
  end

let contribute t ~epoch ~from_child c =
  if epoch <= t.forwarded_upto then begin
    (* This epoch already left: merging now would double-report the
       subtree in a second partial. Drop and count; the root flags the
       gap as a silent rank if the straggling subtree matters. *)
    t.late <- t.late + 1;
    match t.metrics with
    | Some m -> Metrics.incr m ~name:"telem.late_drop" ~rank:(Session.rank t.b)
    | None -> ()
  end
  else begin
    let duplicate =
      match from_child with
      | Some ch -> List.mem ch (acc_get t epoch).heard
      | None -> false
    in
    if not duplicate then begin
      let a = acc_get t epoch in
      a.acc <- (match a.acc with None -> Some c | Some prev -> Some (contrib_merge prev c));
      (match from_child with
      | Some ch -> a.heard <- ch :: a.heard
      | None -> ());
      arm_timer t epoch a;
      check_ready t epoch a
    end
  end

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
    contribute t ~epoch:t.epoch ~from_child:None { c_ranks = [ rank ]; c_snap = delta }
  end

let module_of t =
  {
    Session.mod_name = "telem";
    on_request =
      (fun (req : Message.t) ->
        (match Topic.method_ req.Message.topic with
        | "reduce" ->
          let p = req.Message.payload in
          let epoch = Json.to_int (Json.member "epoch" p) in
          let ranks = List.map Json.to_int (Json.to_list (Json.member "ranks" p)) in
          let snap = Metrics.snap_of_json (Json.member "snap" p) in
          contribute t ~epoch ~from_child:(Some req.Message.origin)
            { c_ranks = ranks; c_snap = snap };
          Session.respond t.b req Json.null
        | m -> Session.respond_error t.b req (Printf.sprintf "telem: unknown method %S" m));
        Session.Consumed);
  }

let load sess ?(config = default_config) () =
  if config.interval <= 0.0 then invalid_arg "Telem.load: interval must be positive";
  if config.window <= 0 then invalid_arg "Telem.load: window must be positive";
  let instances =
    Array.init (Session.size sess) (fun r ->
        {
          b = Session.broker sess r;
          master = r = 0;
          cfg = config;
          epochs = Hashtbl.create 8;
          forwarded_upto = 0;
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
  Session.load_module sess (fun b -> module_of instances.(Session.rank b));
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
let mute ts ~rank =
  let t = ts.(rank) in
  match t.timer with
  | None -> ()
  | Some h ->
    Engine.cancel h;
    t.timer <- None

let stop ts =
  Array.iter
    (fun t ->
      match t.timer with
      | None -> ()
      | Some h ->
        Engine.cancel h;
        t.timer <- None)
    ts

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
