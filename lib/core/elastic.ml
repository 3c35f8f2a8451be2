module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Engine = Flux_sim.Engine
module Telem = Flux_modules.Telem
module Detect = Flux_trace.Detect
module Series = Flux_trace.Series
module Tracer = Flux_trace.Tracer
module Metrics = Flux_trace.Metrics
module Flight = Flux_trace.Flight

(* {1 Pure control law} *)

type policy = {
  p_metric : string;
  p_high : float;
  p_low : float;
  p_step : int;
  p_min_nodes : int;
  p_max_nodes : int;
  p_cooldown : float;
  p_period : float;
  p_require_alert : bool;
  p_silence : float;
}

let default_policy =
  {
    p_metric = "elastic.queue";
    p_high = 32.0;
    p_low = 4.0;
    p_step = 2;
    p_min_nodes = 1;
    p_max_nodes = 64;
    p_cooldown = 1.0;
    p_period = 0.25;
    p_require_alert = true;
    p_silence = 1.0;
  }

let validate_policy p =
  if p.p_metric = "" then Error "p_metric must be non-empty"
  else if not (p.p_low < p.p_high) then Error "p_low must be < p_high"
  else if p.p_step <= 0 then Error "p_step must be positive"
  else if p.p_min_nodes <= 0 then Error "p_min_nodes must be positive"
  else if p.p_max_nodes < p.p_min_nodes then Error "p_max_nodes must be >= p_min_nodes"
  else if p.p_cooldown <= 0.0 then Error "p_cooldown must be positive"
  else if p.p_period <= 0.0 then Error "p_period must be positive"
  else if p.p_silence < 0.0 then Error "p_silence must be non-negative"
  else Ok ()

type decision = Grow of int | Shrink of int | Hold of string

let decision_to_string = function
  | Grow n -> Printf.sprintf "grow %d" n
  | Shrink n -> Printf.sprintf "shrink %d" n
  | Hold r -> Printf.sprintf "hold (%s)" r

type inputs = {
  in_now : float;
  in_pressure : float option;
  in_nodes : int;
  in_alert : bool;
  in_fresh : bool;
}

type memory = { m_last_action : float }

let fresh_memory = { m_last_action = neg_infinity }

(* The whole anti-flap story lives in the ordering here: the silence
   and no-data guards come first (never act blind), then the full
   cooldown (any recent action holds everything, so no reversal can fit
   inside one window), and only then the hysteresis band with its step
   and min/max clamps. *)
let decide p mem inp =
  if not inp.in_fresh then Hold "telemetry-silent"
  else
    match inp.in_pressure with
    | None -> Hold "no-data"
    | Some pressure ->
      if inp.in_now -. mem.m_last_action < p.p_cooldown then Hold "cooldown"
      else if pressure >= p.p_high then
        if p.p_require_alert && not inp.in_alert then Hold "awaiting-alert"
        else
          let step = min p.p_step (p.p_max_nodes - inp.in_nodes) in
          if step <= 0 then Hold "at-max" else Grow step
      else if pressure <= p.p_low then
        let step = min p.p_step (inp.in_nodes - p.p_min_nodes) in
        if step <= 0 then Hold "at-min" else Shrink step
      else Hold "in-band"

let remember mem ~now = function Hold _ -> mem | Grow _ | Shrink _ -> { m_last_action = now }

(* {1 Driver} *)

type t = {
  e_sess : Session.t;
  e_inst : Instance.t;
  e_tmod : Telem.t array;
  e_pol : policy;
  mutable e_mem : memory;
  mutable e_armed : Detect.alert option;  (** alert arming the next tick *)
  mutable e_last_rollup : float;  (** sim time a rollup last landed *)
  mutable e_fallback : bool;
  mutable e_fallback_entries : int;
  mutable e_decisions : (float * decision) list;  (** newest first *)
  mutable e_denied : int;
  mutable e_drains : int;
  mutable e_timer : Engine.handle option;
  mutable e_stop_at : Engine.handle option;
  mutable e_tracer : Tracer.t option;
  mutable e_metrics : Metrics.t option;
  mutable e_flight : Flight.t option;
}

let engine t = Session.engine t.e_sess

let create sess ~instance ~telem ?(policy = default_policy) () =
  (match validate_policy policy with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Elastic.create: %s" e));
  let t =
    {
      e_sess = sess;
      e_inst = instance;
      e_tmod = telem;
      e_pol = policy;
      e_mem = fresh_memory;
      e_armed = None;
      e_last_rollup = neg_infinity;
      e_fallback = false;
      e_fallback_entries = 0;
      e_decisions = [];
      e_denied = 0;
      e_drains = 0;
      e_timer = None;
      e_stop_at = None;
      e_tracer = None;
      e_metrics = None;
      e_flight = None;
    }
  in
  Telem.on_alert telem (fun al ->
      if al.Detect.al_kind = Detect.Queue_growth && al.Detect.al_metric = policy.p_metric
      then t.e_armed <- Some al);
  Telem.on_rollup telem (fun _epoch -> t.e_last_rollup <- Engine.now (engine t));
  t

let set_tracer t tr = t.e_tracer <- Some tr
let set_metrics t m = t.e_metrics <- Some m
let set_flight t f = t.e_flight <- Some f

let trace t ~name fields =
  match t.e_tracer with
  | None -> ()
  | Some tr -> Tracer.emit tr ~cat:"elastic" ~name ~rank:0 ~fields ()

let count t name =
  match t.e_metrics with None -> () | Some m -> Metrics.incr m ~name ~rank:0

let trigger_label t =
  match t.e_armed with
  | Some al ->
    Printf.sprintf "alert:%s@%d" (Detect.kind_to_string al.Detect.al_kind)
      al.Detect.al_epoch
  | None -> "pressure"

let flight_dump t ~decision ~trigger =
  match t.e_flight with
  | None -> ()
  | Some f ->
    ignore
      (Flight.dump f ~rank:0
         ~reason:(Printf.sprintf "elastic: %s trigger=%s" decision trigger))

let apply t d =
  match d with
  | Hold _ -> count t "elastic.hold"
  | Grow n -> (
    let trigger = trigger_label t in
    match Instance.request_grow t.e_inst ~nnodes:n with
    | Ok got ->
      count t "elastic.grow";
      trace t ~name:"grow" [ ("req", Json.int n); ("got", Json.int got) ];
      flight_dump t ~decision:(decision_to_string d) ~trigger
    | Error e ->
      t.e_denied <- t.e_denied + 1;
      count t "elastic.denied";
      trace t ~name:"deny"
        [ ("req", Json.int n); ("error", Json.string (Instance.resize_error_to_string e)) ])
  | Shrink n -> (
    let trigger = trigger_label t in
    match Instance.request_shrink t.e_inst ~nnodes:n with
    | Ok got ->
      count t "elastic.shrink";
      trace t ~name:"shrink" [ ("req", Json.int n); ("got", Json.int got) ];
      flight_dump t ~decision:(decision_to_string d) ~trigger
    | Error (Instance.Resize_draining d') ->
      t.e_drains <- t.e_drains + 1;
      count t "elastic.shrink";
      trace t ~name:"drain" [ ("req", Json.int n); ("draining", Json.int d') ];
      flight_dump t ~decision:(decision_to_string d) ~trigger
    | Error e ->
      t.e_denied <- t.e_denied + 1;
      count t "elastic.denied";
      trace t ~name:"deny"
        [ ("req", Json.int n); ("error", Json.string (Instance.resize_error_to_string e)) ])

let tick t =
  let now = Engine.now (engine t) in
  let fresh = now -. t.e_last_rollup <= t.e_pol.p_silence in
  (* Fallback edges are traced once per transition, not per held tick. *)
  (if (not fresh) && not t.e_fallback then begin
     t.e_fallback <- true;
     t.e_fallback_entries <- t.e_fallback_entries + 1;
     trace t ~name:"fallback" [ ("last_rollup", Json.float t.e_last_rollup) ];
     count t "elastic.fallback"
   end
   else if fresh && t.e_fallback then begin
     t.e_fallback <- false;
     trace t ~name:"recover" []
   end);
  let pressure =
    Option.map snd (Series.latest_scalar (Telem.series t.e_tmod) ~name:t.e_pol.p_metric)
  in
  let nodes = Pool.total_nodes (Instance.pool t.e_inst) in
  let inp =
    {
      in_now = now;
      in_pressure = pressure;
      in_nodes = nodes;
      in_alert = t.e_armed <> None;
      in_fresh = fresh;
    }
  in
  let d = decide t.e_pol t.e_mem inp in
  t.e_decisions <- (now, d) :: t.e_decisions;
  trace t ~name:"decision"
    [
      ("decision", Json.string (decision_to_string d));
      ("pressure", Json.float (Option.value pressure ~default:nan));
      ("nodes", Json.int nodes);
      ("trigger", Json.string (trigger_label t));
    ];
  apply t d;
  (* Denied actions still stamp the cooldown: hammering a parent that
     just said no is the grow-storm failure mode. *)
  t.e_mem <- remember t.e_mem ~now d;
  t.e_armed <- None;
  match t.e_metrics with
  | None -> ()
  | Some m ->
    Metrics.set_gauge m ~name:"elastic.nodes" ~rank:0
      (float_of_int (Pool.total_nodes (Instance.pool t.e_inst)))

let rec stop t =
  (match t.e_timer with None -> () | Some h -> Engine.cancel h);
  t.e_timer <- None;
  (match t.e_stop_at with None -> () | Some h -> Engine.cancel h);
  t.e_stop_at <- None

and start ?until t =
  if t.e_timer = None then begin
    (* A rollup may already have landed before the controller started;
       don't begin life in fallback unless telemetry truly is silent. *)
    if t.e_last_rollup = neg_infinity then t.e_last_rollup <- Engine.now (engine t);
    t.e_timer <- Some (Engine.every (engine t) ~period:t.e_pol.p_period (fun () -> tick t))
  end;
  match until with
  | None -> ()
  | Some d ->
    if t.e_stop_at = None then
      t.e_stop_at <- Some (Engine.schedule (engine t) ~delay:d (fun () -> stop t))

(* {1 Introspection} *)

let decisions t = List.rev t.e_decisions

let actions t =
  List.filter (fun (_, d) -> match d with Grow _ | Shrink _ -> true | Hold _ -> false)
    (decisions t)

let denied t = t.e_denied
let drains t = t.e_drains
let fallback_entries t = t.e_fallback_entries

let fingerprint t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (ts, d) -> Buffer.add_string buf (Printf.sprintf "%.6f %s\n" ts (decision_to_string d)))
    (decisions t);
  Digest.to_hex (Digest.string (Buffer.contents buf))
