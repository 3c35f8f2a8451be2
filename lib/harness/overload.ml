module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Net = Flux_sim.Net
module Proc = Flux_sim.Proc
module Rng = Flux_util.Rng
module Stats = Flux_util.Stats
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Tracer = Flux_trace.Tracer
module Metrics = Flux_trace.Metrics
module Flight = Flux_trace.Flight
module Tmod = Flux_modules.Telem

type profile = Sustained | Bursty

type config = {
  seed : int;
  size : int;
  producers : int list;
  rate : float;
  duration : float;
  profile : profile;
  flow : Session.flow_config option;
  link_limits : int option;
  kvs : Kvs.config;
  chaos_kill : bool;
  telem : bool; (* run the live telemetry plane in-band with the soak *)
  telem_interval : float; (* rollup epoch length; <= 0 means duration/10 *)
}

(* Bursty square wave: peak-to-trough ratio and period. *)
let burst_factor = 4.0
let burst_period = 0.05

(* Above the inline threshold: values stay by-reference, so directories
   hold 20-byte shas rather than the payloads. *)
let value_bytes = 512

(* Per-attempt client deadline and transmissions per mput. *)
let op_timeout = 1.0
let op_attempts = 6

let master_capacity cfg =
  if cfg.kvs.Kvs.apply_cpu_per_tuple <= 0.0 then infinity
  else 1.0 /. cfg.kvs.Kvs.apply_cpu_per_tuple

let default =
  {
    seed = 1;
    size = 64;
    (* Leaf-ish ranks, spread across subtrees so the streams converge
       hop by hop — the TBON funnel the credits are protecting. *)
    producers = List.init 8 (fun i -> 56 + i);
    rate = 5_000.0;
    duration = 0.5;
    profile = Sustained;
    (* The top-of-tree broker funnels nearly all traffic: its window
       must cover the master's queueing delay (window/apply-rate) or the
       credits, not the master, become the bottleneck. 256 credits at
       100 us/op is a 25.6 ms pipe — deep enough to saturate the master,
       shallow enough that admission control still gets exercised. *)
    flow = Some { Session.flow_credits = 256; flow_stash = 512 };
    link_limits = Some 512;
    (* A 100 us serial apply makes the master's capacity 10k ops/s —
       small enough to saturate with a short virtual-time run. *)
    kvs =
      {
        Kvs.default_config with
        Kvs.apply_cpu_per_tuple = 100e-6;
        admission_max_intake = 256;
      };
    chaos_kill = false;
    telem = false;
    telem_interval = 0.0;
  }

type report = {
  offered : int;
  acked : int;
  shed : int;
  failed : int;
  goodput : float;
  ack_p50 : float;
  ack_p99 : float;
  admission_sheds : int;
  intake_hwm : int;
  flow_stash_hwm : int;
  link_depth_hwm : int;
  rpc_busy_retries : int;
  rpc_retries : int;
  rpc_timeouts : int;
  lost_acks : int;
  drained : bool;
  violations : string list;
  final_version : int;
  final_clock : float;
  sim_events : int;
  telem_epochs : int; (* 0 when the plane is off *)
  telem_alerts : int;
  telem_dumps : int;
}

(* Shared mutable state of one soak run. *)
type state = {
  cfg : config;
  eng : Engine.t;
  sess : Session.t;
  kvs : Kvs.t array;
  h : History.t;
  lat : Stats.t;
  mutable offered : int;
  mutable acked : int;
  mutable shed : int;
  mutable failed : int;
  mutable last_ack : float; (* when the final ack landed *)
}

(* --- Open-loop producers -------------------------------------------------- *)

(* Offered load is open loop: arrivals are scheduled on the engine at
   drawn interarrival times regardless of how many ops are still in
   flight — the overload regime closed-loop clients can never reach. *)

let stream_rate st ~now =
  let per = st.cfg.rate /. float_of_int (List.length st.cfg.producers) in
  match st.cfg.profile with
  | Sustained -> per
  | Bursty ->
    (* Average-preserving square wave with peak-to-trough ratio
       [burst_factor]: bursts hammer the queues while the aggregate
       offered load stays at the configured rate. *)
    let f = burst_factor in
    let phase = Float.rem now burst_period in
    if phase < burst_period /. 2.0 then per *. 2.0 *. f /. (f +. 1.0)
    else per *. 2.0 /. (f +. 1.0)

let value_for ~rank ~seq =
  Json.obj
    [
      ("r", Json.int rank);
      ("n", Json.int seq);
      ("pad", Json.string (String.make value_bytes 'x'));
    ]

let inject st ~api ~rank ~seq =
  (* Shard each stream across 64 subdirectories so no directory grows
     with the run: an apply rewrites every directory on the touched
     path, and a single flat directory would make op cost linear in the
     ops so far. *)
  let key = Printf.sprintf "ov.%d.%d.%d" rank (seq land 63) seq in
  let v = value_for ~rank ~seq in
  let sent = Engine.now st.eng in
  st.offered <- st.offered + 1;
  Api.rpc_async api ~timeout:op_timeout ~attempts:op_attempts
    ~idempotent:true ~topic:"kvs.mput"
    (Json.obj [ ("bindings", Json.list [ Json.obj [ ("key", Json.string key); ("v", v) ] ]) ])
    ~reply:(fun r ->
      match r with
      | Ok _ ->
        st.acked <- st.acked + 1;
        st.last_ack <- Engine.now st.eng;
        Stats.add st.lat (Engine.now st.eng -. sent);
        History.ack st.h key v
      | Error e ->
        if Session.busy_retry_after e <> None then st.shed <- st.shed + 1
        else st.failed <- st.failed + 1)

let producer st ~rank =
  let api = Api.connect st.sess ~rank in
  let rng = Rng.create (st.cfg.seed lxor (rank * 0x9e3779b1)) in
  let seq = ref 0 in
  let rec arm () =
    let now = Engine.now st.eng in
    if now < st.cfg.duration then begin
      let gap = Rng.exponential rng (1.0 /. stream_rate st ~now) in
      ignore
        (Engine.schedule st.eng ~delay:gap (fun () ->
             if Engine.now st.eng < st.cfg.duration then begin
               incr seq;
               inject st ~api ~rank ~seq:!seq;
               arm ()
             end)
          : Engine.handle)
    end
  in
  arm ()

(* A version monitor at the first producer rank: monotonic reads must
   survive shedding — rejected writes may be lost, observed roots may
   never regress. *)
let monitor st =
  let rank = List.hd st.cfg.producers in
  ignore
    (Proc.spawn st.eng (fun () ->
         let c = Client.connect st.sess ~rank in
         while Engine.now st.eng < st.cfg.duration do
           Proc.sleep (st.cfg.duration /. 200.0);
           match Client.get_version c with
           | Ok v -> History.observe st.h ~who:"monitor" ~label:"get_version" v
           | Error _ -> ()
         done)
      : Proc.pid)

(* Optional chaos overlay: kill one interior non-producer, non-master
   rank a third of the way in and revive it at two thirds, proving the
   overload invariants hold across a failover-free fault. *)
let chaos_overlay st =
  match
    List.filter
      (fun r -> r <> 0 && not (List.mem r st.cfg.producers))
      (List.init st.cfg.size Fun.id)
  with
  | [] -> ()
  | victim :: _ ->
    ignore
      (Engine.schedule st.eng ~delay:(st.cfg.duration /. 3.0) (fun () ->
           History.kill st.h victim)
        : Engine.handle);
    ignore
      (Engine.schedule st.eng ~delay:(2.0 *. st.cfg.duration /. 3.0) (fun () ->
           History.revive st.h victim)
        : Engine.handle)

(* --- Verification --------------------------------------------------------- *)

let check_bounds st =
  (match st.cfg.flow with
  | Some fc ->
    let hwm = Session.flow_stash_hwm st.sess in
    if hwm > fc.Session.flow_stash then
      History.violate st.h "flow stash hwm %d exceeds bound %d" hwm fc.Session.flow_stash
  | None -> ());
  (match st.cfg.link_limits with
  | Some cap ->
    let hwm = Net.max_link_depth_hwm (Session.rpc_net st.sess) in
    if hwm > cap then History.violate st.h "link depth hwm %d exceeds bound %d" hwm cap
  | None -> ());
  if st.cfg.kvs.Kvs.admission_max_intake > 0 then begin
    let hwm = Kvs.intake_hwm st.kvs.(0) in
    (* The gate admits at depth < limit; an admitted fence batch can
       still park, so the true ceiling is the threshold itself. *)
    if hwm > st.cfg.kvs.Kvs.admission_max_intake then
      History.violate st.h "master intake hwm %d exceeds bound %d" hwm
        st.cfg.kvs.Kvs.admission_max_intake
  end

let validate cfg =
  Harness.require
    [
      (cfg.producers <> [], "no producers");
      ( List.for_all (fun r -> r > 0 && r < cfg.size) cfg.producers,
        "producer rank out of range (must be 1..size-1)" );
      (cfg.rate > 0.0 && cfg.duration > 0.0, "rate and duration must be positive");
    ]

let run cfg =
  Result.iter_error (fun e -> invalid_arg ("Overload.run: " ^ e)) (validate cfg);
  let eng = Engine.create () in
  let sess = Session.create eng ?flow:cfg.flow ~size:cfg.size () in
  Net.set_link_limits (Session.rpc_net sess) cfg.link_limits;
  let kvs = Kvs.load sess ~config:cfg.kvs () in
  (* Optional live telemetry plane, riding the same overloaded tree as
     the soak traffic — the rollups themselves contend for the links,
     credits, and admission gate under test. *)
  let telem =
    if not cfg.telem then None
    else begin
      (* The plane samples the *metric* registry — counters, gauges and
         histograms every layer already maintains — so metrics attach to
         the whole stack. Full per-event tracing is a separate opt-in
         (`flux trace`): at soak rates it costs ~2x wall
         clock, so the tracer here is a small dedicated ring carrying
         only the plane's own rollup/alert events and feeding the
         flight recorder. *)
      let tr = Tracer.create ~capacity:8192 ~now:(fun () -> Engine.now eng) () in
      let m = Metrics.create () in
      Session.set_metrics sess (Some m);
      Kvs.set_metrics_all kvs m;
      let f = Flight.create ~capacity:128 tr in
      let ts =
        Tmod.load sess
          ~config:{ Tmod.default_config with Tmod.interval =
              (if cfg.telem_interval > 0.0 then cfg.telem_interval
               else cfg.duration /. 10.0) }
          ()
      in
      Tmod.set_metrics_all ts m;
      Tmod.set_tracer_all ts tr;
      Tmod.set_flight_all ts f;
      Tmod.start ~until:cfg.duration ts;
      Some (ts, f)
    end
  in
  let st =
    {
      cfg;
      eng;
      sess;
      kvs;
      h = History.create ?flight:(Option.map snd telem) sess;
      lat = Stats.create ();
      offered = 0;
      acked = 0;
      shed = 0;
      failed = 0;
      last_ack = 0.0;
    }
  in
  List.iter (fun r -> producer st ~rank:r) cfg.producers;
  monitor st;
  if cfg.chaos_kill then chaos_overlay st;
  (* Drains completely: open-loop arrivals stop at [duration], then
     every in-flight RPC resolves (ack, busy, or timeout) and the
     engine goes quiet. *)
  Engine.run eng;
  (* Goodput over the full busy window (injection plus drain-to-last-
     ack), so work absorbed into queues and finished late cannot be
     counted as above-capacity throughput. The raw engine clock would
     overshoot: idle housekeeping timers (stash sweeps, deadline arming)
     can fire long after the last useful event. *)
  let drain_clock = Float.max cfg.duration st.last_ack in
  (* Every acked write must read back with the committed value: shedding
     may reject offered load, never acknowledged load. *)
  let before = List.length (History.violations st.h) in
  let rank = List.hd cfg.producers in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank in
         ignore
           (History.verify st.h ~label:(Printf.sprintf "verify@%d" rank) (fun key ->
                Client.get c ~key)
             : int))
      : Proc.pid);
  Engine.run eng;
  let lost_acks = List.length (History.violations st.h) - before in
  check_bounds st;
  let unresolved = st.offered - st.acked - st.shed - st.failed in
  if unresolved <> 0 then History.violate st.h "%d offered ops never resolved" unresolved;
  let stash_left =
    List.init cfg.size (fun r -> Session.flow_stash_depth sess r)
    |> List.fold_left ( + ) 0
  in
  let drained = stash_left = 0 && Kvs.intake_depth kvs.(0) = 0 in
  if not drained then
    History.violate st.h "undrained: stash=%d intake=%d" stash_left (Kvs.intake_depth kvs.(0));
  {
    offered = st.offered;
    acked = st.acked;
    shed = st.shed;
    failed = st.failed;
    goodput = float_of_int st.acked /. drain_clock;
    ack_p50 = (if Stats.count st.lat = 0 then 0.0 else Stats.percentile st.lat 0.50);
    ack_p99 = (if Stats.count st.lat = 0 then 0.0 else Stats.percentile st.lat 0.99);
    admission_sheds = Kvs.admission_sheds kvs.(0);
    intake_hwm = Kvs.intake_hwm kvs.(0);
    flow_stash_hwm = Session.flow_stash_hwm sess;
    link_depth_hwm = Net.max_link_depth_hwm (Session.rpc_net sess);
    rpc_busy_retries = Session.rpc_busy_retries sess;
    rpc_retries = Session.rpc_retries sess;
    rpc_timeouts = Session.rpc_timeouts sess;
    lost_acks;
    drained;
    violations = History.violations st.h;
    final_version = Kvs.version kvs.(0);
    final_clock = Engine.now eng;
    sim_events = Engine.events_executed eng;
    telem_epochs = (match telem with Some (ts, _) -> Tmod.epochs_completed ts | None -> 0);
    telem_alerts = (match telem with Some (ts, _) -> List.length (Tmod.alerts ts) | None -> 0);
    telem_dumps = (match telem with Some (_, f) -> List.length (Flight.dumps f) | None -> 0);
  }

let row (r : report) =
  [
    ("offered", Json.int r.offered);
    ("acked", Json.int r.acked);
    ("shed", Json.int r.shed);
    ("failed", Json.int r.failed);
    ("goodput", Json.float r.goodput);
    ("ack_p50", Json.float r.ack_p50);
    ("ack_p99", Json.float r.ack_p99);
    ("admission_sheds", Json.int r.admission_sheds);
    ("intake_hwm", Json.int r.intake_hwm);
    ("flow_stash_hwm", Json.int r.flow_stash_hwm);
    ("link_depth_hwm", Json.int r.link_depth_hwm);
    ("lost_acks", Json.int r.lost_acks);
    ("drained", Json.bool r.drained);
    ("sim_events", Json.int r.sim_events);
    ("violations", Json.int (List.length r.violations));
    ("telem_epochs", Json.int r.telem_epochs);
    ("telem_alerts", Json.int r.telem_alerts);
    ("telem_dumps", Json.int r.telem_dumps);
  ]

let harness =
  let sweep ~fast =
    let size = if fast then 64 else 512 in
    let nproducers = if fast then 8 else 16 in
    let producers = List.init nproducers (fun i -> size - nproducers + i) in
    let duration = if fast then 0.3 else 0.5 in
    let base = { default with size; producers; duration } in
    let cap = master_capacity base in
    Printf.printf "(%d nodes, %d producers, %.1fs window, master capacity %.0f ops/s)\n%!" size
      nproducers duration cap;
    let runs =
      List.map
        (fun (label, mult, profile, chaos_kill) ->
          let cfg = { base with rate = cap *. mult; profile; chaos_kill } in
          (label, mult, cfg, run cfg))
        [
          ("sustained", 0.5, Sustained, false);
          ("sustained", 1.0, Sustained, false);
          ("sustained", 2.0, Sustained, false);
          ("bursty", 2.0, Bursty, false);
          ("chaos", 1.0, Sustained, true);
        ]
    in
    let rows =
      List.map
        (fun (label, mult, cfg, r) ->
          [
            ("profile", Json.string label);
            ("capacity_multiple", Json.float mult);
            ("rate", Json.float cfg.rate);
          ]
          @ List.filter (fun (k, _) -> not (String.starts_with ~prefix:"telem_" k)) (row r))
        runs
    in
    Harness.print_table rows;
    (* The shape the protection stack must produce: goodput at 2x capacity
       plateaus near the 1x level instead of collapsing under retry storms
       and unbounded queueing. *)
    let goodput_at m =
      List.find_map
        (fun (label, mult, _, (r : report)) ->
          if label = "sustained" && mult = m then Some r.goodput else None)
        runs
      |> Option.value ~default:0.0
    in
    let g1 = goodput_at 1.0 and g2 = goodput_at 2.0 in
    let retained = if g1 > 0.0 then 100.0 *. g2 /. g1 else 0.0 in
    Printf.printf "  goodput at 2x capacity retains %.0f%% of the 1x level\n%!" retained;
    {
      Harness.doc =
        Json.obj
          [
            ("experiment", Json.string "overload");
            ("nodes", Json.int size);
            ("producers", Json.int nproducers);
            ("duration", Json.float duration);
            ("master_capacity", Json.float cap);
            ("tier", Harness.tier ~fast);
            ("rows", Json.list (List.map Json.obj rows));
          ];
      violations =
        List.concat_map
          (fun (label, mult, _, (r : report)) ->
            Harness.labelled (Printf.sprintf "%s %.1fx" label mult) r.violations)
          runs
        @ Harness.check (g2 >= 0.5 *. g1)
            (Printf.sprintf "goodput at 2x capacity collapsed to %.0f%% of the 1x level" retained);
      host = [];
    }
  in
  {
    Harness.name = "overload";
    title = "open-loop soak past master capacity (bounded queues, credits, admission)";
    sweep;
    cli = Harness.once (fun () -> run default) row (fun r -> r.violations);
  }
