(* Telemetry-plane harness: a seeded synthetic workload with injectable
   faults, run under the live telemetry plane, checking that the plane
   actually sees them. Every rank runs a timed-work loop feeding the
   [telem.work] histogram; the faults are a straggler (one rank's work
   items slow down by a factor mid-run), a kill (mark_down, which must
   produce a flight dump of the victim's last events), a mute (one
   rank's telemetry agent dies while the rank stays up — the silent-rank
   case), and a queue ramp (a gauge growing linearly, the trend the
   elasticity roadmap item wants detected). Guarantees trip into the
   run's History, whose first violation takes a flight dump, so every
   failed run carries its own evidence. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Rng = Flux_util.Rng
module Session = Flux_cmb.Session
module Metrics = Flux_trace.Metrics
module Tracer = Flux_trace.Tracer
module Flight = Flux_trace.Flight
module Series = Flux_trace.Series
module Detect = Flux_trace.Detect
module Tmod = Flux_modules.Telem

type config = {
  seed : int;
  size : int;
  fanout : int;
  interval : float; (* rollup epoch length *)
  epochs : int; (* run duration = epochs * interval *)
  window : int;
  work_per_epoch : int; (* work items per rank per epoch *)
  straggler : (int * float) option; (* rank, slowdown factor *)
  onset_frac : float; (* fault onset as a fraction of the run *)
  kill : int option; (* rank marked down at onset *)
  mute : int option; (* rank whose telemetry agent dies at onset *)
  ramp : float option; (* telem.qdepth gauge growth, units/epoch *)
}

let default =
  {
    seed = 1;
    size = 16;
    fanout = 2;
    interval = 0.05;
    epochs = 12;
    window = 32;
    work_per_epoch = 4;
    straggler = Some (11, 10.0);
    onset_frac = 0.3;
    kill = None;
    mute = None;
    ramp = None;
  }

(* Mean work-item duration, seconds. *)
let work_mean = 0.002

let straggler_case = default
let kill_case = { default with straggler = None; kill = Some 9 }
let silent_case = { default with straggler = None; mute = Some 7 }
let growth_case = { default with straggler = None; ramp = Some 4.0 }

type report = {
  t_epochs : int; (* rollup epochs the root finalized *)
  t_alerts : Detect.alert list;
  t_stragglers : int;
  t_growth : int;
  t_silent : int;
  t_first_straggler_epoch : int; (* -1 when none fired *)
  t_onset_epoch : int; (* rollup epoch containing the fault onset *)
  t_dumps : int;
  t_victim_dump_events : int; (* events in the killed rank's dump; -1 without a kill *)
  t_rollup_bytes : int;
  t_late_drops : int;
  t_alert_fingerprint : string; (* determinism check: kind:epoch:rank:metric;... *)
  t_violations : string list;
  t_clock : float;
  t_events : int; (* engine fingerprint *)
  t_series : Series.t;
  t_flight : Flight.t;
}

let alert_fingerprint alerts =
  String.concat ";"
    (List.map
       (fun (a : Detect.alert) ->
         Printf.sprintf "%s:%d:%d:%s"
           (Detect.kind_to_string a.Detect.al_kind)
           a.Detect.al_epoch a.Detect.al_rank a.Detect.al_metric)
       alerts)

let validate cfg =
  let rank_ok = function Some r -> r > 0 && r < cfg.size | None -> true in
  Harness.require
    [
      (cfg.size >= 4, "size must be >= 4");
      (cfg.fanout >= 2, "fanout must be >= 2");
      (cfg.epochs >= 4, "epochs must be >= 4");
      (cfg.interval > 0.0, "interval must be positive");
      (cfg.window >= 1 && cfg.work_per_epoch >= 1, "window and work_per_epoch must be >= 1");
      (cfg.seed >= 1, "seed must be >= 1");
      (cfg.onset_frac >= 0.0 && cfg.onset_frac < 1.0, "onset_frac must be in [0, 1)");
      ( List.for_all rank_ok [ cfg.kill; cfg.mute; Option.map fst cfg.straggler ],
        "fault ranks must be in 1..size-1" );
      ( Option.fold ~none:true ~some:(fun (_, f) -> f > 1.0) cfg.straggler,
        "straggler factor must exceed 1" );
    ]

let run cfg =
  Result.iter_error (fun e -> invalid_arg ("Telem.run: " ^ e)) (validate cfg);
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout:cfg.fanout ~size:cfg.size () in
  let tracer = Tracer.create ~capacity:500_000 ~now:(fun () -> Engine.now eng) () in
  let metrics = Metrics.create () in
  Session.set_tracer sess (Some tracer);
  Session.set_metrics sess (Some metrics);
  let flight = Flight.create ~capacity:128 tracer in
  let h = History.create ~flight sess in
  let tconfig =
    {
      Tmod.default_config with
      Tmod.interval = cfg.interval;
      window = cfg.window;
      straggler_metrics = [ "telem.work" ];
      queue_metrics = (match cfg.ramp with Some _ -> [ "telem.qdepth" ] | None -> []);
    }
  in
  let telem = Tmod.load sess ~config:tconfig () in
  Tmod.set_metrics_all telem metrics;
  Tmod.set_tracer_all telem tracer;
  Tmod.set_flight_all telem flight;
  let duration = float_of_int cfg.epochs *. cfg.interval in
  let onset = cfg.onset_frac *. duration in
  (* A quarter-interval of slack so the final epoch's tick (exactly at
     [duration]) fires before the timers are cancelled. *)
  Tmod.start ~until:(duration +. (0.25 *. cfg.interval)) telem;
  (* Timed-work loops: one per rank, [work_per_epoch] items per epoch,
     durations jittered deterministically per (seed, rank). *)
  for rank = 0 to cfg.size - 1 do
    let rng = Rng.create (cfg.seed lxor ((rank + 1) * 0x9e3779b1)) in
    let period = cfg.interval /. float_of_int cfg.work_per_epoch in
    let rec arm () =
      ignore
        (Engine.schedule eng ~delay:period (fun () ->
             let now = Engine.now eng in
             if now < duration then begin
               if not (Session.is_down sess rank) then begin
                 let slow =
                   match cfg.straggler with
                   | Some (r, f) when r = rank && now >= onset -> f
                   | _ -> 1.0
                 in
                 let dur = work_mean *. slow *. (0.75 +. (0.5 *. Rng.float rng 1.0)) in
                 Tracer.emit tracer ~cat:"work" ~name:"item" ~rank
                   ~fields:[ ("dur", Json.float dur) ]
                   ();
                 Metrics.observe metrics ~name:"telem.work" ~rank dur;
                 match cfg.ramp with
                 | Some per_epoch when rank = 0 ->
                   Metrics.set_gauge metrics ~name:"telem.qdepth" ~rank
                     (per_epoch *. now /. cfg.interval)
                 | _ -> ()
               end;
               arm ()
             end)
          : Engine.handle)
    in
    arm ()
  done;
  (match cfg.kill with
  | Some r ->
    ignore
      (Engine.schedule eng ~delay:onset (fun () -> History.kill h r)
        : Engine.handle)
  | None -> ());
  (match cfg.mute with
  | Some r ->
    ignore
      (Engine.schedule eng ~delay:onset (fun () -> Tmod.mute telem ~rank:r)
        : Engine.handle)
  | None -> ());
  Engine.run eng;
  (* --- Guarantees -------------------------------------------------------- *)
  let alerts = Tmod.alerts telem in
  let count k =
    List.length (List.filter (fun (a : Detect.alert) -> a.Detect.al_kind = k) alerts)
  in
  let onset_epoch = int_of_float (onset /. cfg.interval) + 1 in
  let first_straggler =
    match cfg.straggler with
    | None -> -1
    | Some (r, _) -> (
      match
        List.find_opt
          (fun (a : Detect.alert) ->
            a.Detect.al_kind = Detect.Straggler && a.Detect.al_rank = r)
          alerts
      with
      | Some a -> a.Detect.al_epoch
      | None -> -1)
  in
  (match cfg.straggler with
  | Some (r, _) ->
    if first_straggler < 0 then History.violate h "no straggler alert for rank %d" r
    else if first_straggler > onset_epoch + 2 then
      History.violate h "straggler alert late: epoch %d, onset epoch %d" first_straggler onset_epoch
  | None -> ());
  let victim_dump_events =
    match cfg.kill with
    | None -> -1
    | Some r -> (
      match
        List.find_opt
          (fun (d : Flight.dump) ->
            d.Flight.d_rank = r && String.equal d.Flight.d_reason "mark_down")
          (Flight.dumps flight)
      with
      | None ->
        History.violate h "no flight dump for killed rank %d" r;
        0
      | Some d ->
        let n = List.length d.Flight.d_events in
        if n = 0 then History.violate h "killed rank %d flight dump is empty" r;
        n)
  in
  (match cfg.mute with
  | Some r ->
    if
      not
        (List.exists
           (fun (a : Detect.alert) ->
             a.Detect.al_kind = Detect.Silent && a.Detect.al_rank = r)
           alerts)
    then History.violate h "no silent alert for muted rank %d" r
  | None -> ());
  (match cfg.ramp with
  | Some _ -> if count Detect.Queue_growth = 0 then History.violate h "no queue-growth alert"
  | None -> ());
  let rollups = Tmod.epochs_completed telem in
  if rollups < cfg.epochs - 2 then
    History.violate h "only %d/%d rollup epochs completed" rollups cfg.epochs;
  {
    t_epochs = rollups;
    t_alerts = alerts;
    t_stragglers = count Detect.Straggler;
    t_growth = count Detect.Queue_growth;
    t_silent = count Detect.Silent;
    t_first_straggler_epoch = first_straggler;
    t_onset_epoch = onset_epoch;
    t_dumps = List.length (Flight.dumps flight);
    t_victim_dump_events = victim_dump_events;
    t_rollup_bytes = Tmod.rollup_bytes telem;
    t_late_drops = Tmod.late_drops telem;
    t_alert_fingerprint = alert_fingerprint alerts;
    t_violations = History.violations h;
    t_clock = Engine.now eng;
    t_events = Engine.events_executed eng;
    t_series = Tmod.series telem;
    t_flight = flight;
  }

let row r =
  [
    ("epochs", Json.int r.t_epochs);
    ("rollup_bytes", Json.int r.t_rollup_bytes);
    ( "bytes_per_epoch",
      Json.float
        (if r.t_epochs > 0 then float_of_int r.t_rollup_bytes /. float_of_int r.t_epochs else 0.0)
    );
    ("alerts", Json.int (List.length r.t_alerts));
    ("late_drops", Json.int r.t_late_drops);
    ("sim_events", Json.int r.t_events);
    ("violations", Json.int (List.length r.t_violations));
    ("stragglers", Json.int r.t_stragglers);
    ("growth", Json.int r.t_growth);
    ("silent", Json.int r.t_silent);
    ("first_straggler_epoch", Json.int r.t_first_straggler_epoch);
    ("onset_epoch", Json.int r.t_onset_epoch);
    ("dumps", Json.int r.t_dumps);
    ("victim_dump_events", Json.int r.t_victim_dump_events);
    ("alert_fingerprint", Json.string r.t_alert_fingerprint);
    ("clock", Json.float r.t_clock);
  ]

(* --- Bench sweep ----------------------------------------------------------- *)

(* Two questions the telemetry plane must answer before it is allowed
   on by default anywhere: (a) what does running it in-band cost — the
   overload soak with [telem] off twice (proving the fingerprint is
   untouched when disabled) and once with it on, comparing wall-clock
   events/s; (b) how much TBON traffic do rollups generate per epoch as
   the interval shrinks — a fault-free sweep of this harness. *)
let harness =
  let sweep ~fast =
    let size = if fast then 48 else 256 in
    let nproducers = if fast then 6 else 12 in
    let producers = List.init nproducers (fun i -> size - nproducers + i) in
    let duration = if fast then 0.25 else 0.4 in
    let base = { Overload.default with Overload.size; producers; duration } in
    let base = { base with Overload.rate = Overload.master_capacity base } in
    let timed name cfg =
      Gc.compact ();
      let s0 = Gc.quick_stat () in
      let t0 = Unix.gettimeofday () in
      let r = Overload.run cfg in
      let wall = Unix.gettimeofday () -. t0 in
      let s1 = Gc.quick_stat () in
      let words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
      (name, wall, words s1 -. words s0, r)
    in
    Printf.printf "(%d nodes, %d producers, %.2fs soak at 1x capacity)\n%!" size nproducers
      duration;
    (* Discard a warm-up run so the first timed row doesn't pay code and
       allocator warm-up that the later rows don't. *)
    ignore (Overload.run { base with Overload.telem = false } : Overload.report);
    let off1 = timed "telem-off/1" { base with Overload.telem = false } in
    let off2 = timed "telem-off/2" { base with Overload.telem = false } in
    (* Two cadences: coarse (2 rollup epochs over the window — the
       realistic regime, where a soak window is a fraction of one
       telemetry epoch) and aggressive (10 epochs — oversampling, to make
       the plane's marginal cost visible). *)
    let on =
      timed "telem-on" { base with Overload.telem = true; telem_interval = duration /. 2.0 }
    in
    let on_fast =
      timed "telem-on/10x" { base with Overload.telem = true; telem_interval = duration /. 10.0 }
    in
    let soak = [ off1; off2; on; on_fast ] in
    let rate_of (_, wall, _, (r : Overload.report)) = float_of_int r.Overload.sim_events /. wall in
    let soak_rows =
      List.map
        (fun ((name, wall, alloc, r) as run) ->
          let row = Overload.row r in
          [ ("run", Json.string name); ("wall_s", Json.float wall) ]
          @ Harness.pick [ "sim_events" ] row
          @ [ ("events_per_s", Json.float (rate_of run)); ("alloc_words", Json.float alloc) ]
          @ Harness.pick
              [ "acked"; "telem_epochs"; "telem_alerts"; "telem_dumps"; "violations" ] row)
        soak
    in
    Harness.print_table soak_rows;
    let events (_, _, _, (r : Overload.report)) = r.Overload.sim_events in
    let fingerprint_stable = events off1 = events off2 in
    (* Wall-clock is noisy; take the faster of the two off runs as the
       baseline so measured overhead is conservative (an upper bound),
       and record the off-run spread as the noise floor the overhead
       should be judged against. *)
    let off_rate = Float.max (rate_of off1) (rate_of off2) in
    let off_spread_pct = 100.0 *. ((off_rate /. Float.min (rate_of off1) (rate_of off2)) -. 1.0) in
    let overhead_of run =
      let rate = rate_of run in
      if rate > 0.0 then 100.0 *. ((off_rate /. rate) -. 1.0) else 0.0
    in
    let overhead_pct = overhead_of on and overhead_fast_pct = overhead_of on_fast in
    Printf.printf
      "  off-run spread %.1f%%; telem-on overhead %+.1f%% events/s, %+.1f%% oversampled\n%!"
      off_spread_pct overhead_pct overhead_fast_pct;
    let sweep_runs =
      List.map
        (fun interval ->
          ( interval,
            run
              {
                default with
                straggler = None;
                interval;
                epochs = (if fast then 10 else 20);
                size = (if fast then 16 else 32);
              } ))
        (if fast then [ 0.025; 0.05; 0.1 ] else [ 0.0125; 0.025; 0.05; 0.1 ])
    in
    let sweep_rows =
      List.map
        (fun (interval, r) ->
          ("interval", Json.float interval)
          :: Harness.pick
               [
                 "epochs"; "rollup_bytes"; "bytes_per_epoch"; "alerts"; "late_drops"; "sim_events";
                 "violations";
               ]
               (row r))
        sweep_runs
    in
    Harness.print_table sweep_rows;
    {
      Harness.doc =
        Json.obj
          [
            ("experiment", Json.string "telem");
            ("tier", Harness.tier ~fast);
            ("soak_nodes", Json.int size);
            ("soak_duration", Json.float duration);
            ("fingerprint_stable", Json.bool fingerprint_stable);
            ("off_spread_pct", Json.float off_spread_pct);
            ("telem_overhead_pct", Json.float overhead_pct);
            ("telem_overhead_oversampled_pct", Json.float overhead_fast_pct);
            ("soak", Json.list (List.map Json.obj soak_rows));
            ("interval_sweep", Json.list (List.map Json.obj sweep_rows));
          ];
      violations =
        List.concat_map
          (fun (name, _, _, (r : Overload.report)) -> Harness.labelled name r.Overload.violations)
          soak
        @ List.concat_map
            (fun (interval, r) ->
              Harness.labelled (Printf.sprintf "interval %g" interval) r.t_violations)
            sweep_runs
        @ Harness.check fingerprint_stable
            (Printf.sprintf "telem-off fingerprint diverged (%d <> %d events)" (events off1)
               (events off2));
      host =
        [
          "wall_s"; "events_per_s"; "alloc_words"; "off_spread_pct"; "telem_overhead_pct";
          "telem_overhead_oversampled_pct";
        ];
    }
  in
  let cli =
    let open Cmdliner in
    let faults =
      [
        ("straggler", straggler_case);
        ("kill", kill_case);
        ("silent", silent_case);
        ("growth", growth_case);
        ("none", { default with straggler = None });
      ]
    in
    let go size fanout interval epochs window work_per_epoch base seed csv flight_out =
      (* The canned fault ranks assume 16 ranks: move them inside smaller sessions. *)
      let adjust r = if r >= size then (size / 2) + 1 else r in
      let cfg =
        {
          base with
          seed;
          size;
          fanout;
          interval;
          epochs;
          window;
          work_per_epoch;
          straggler = Option.map (fun (r, f) -> (adjust r, f)) base.straggler;
          kill = Option.map adjust base.kill;
          mute = Option.map adjust base.mute;
        }
      in
      Harness.validated (validate cfg) (fun () ->
          let r = run cfg in
          Harness.print_row (row r);
          print_string ((if csv then Series.to_csv else Series.render_top) r.t_series);
          (match flight_out with
          | None -> ()
          | Some path -> (
            match Flight.dumps r.t_flight with
            | [] -> Printf.printf "no flight dumps taken; %s not written\n" path
            | d :: _ ->
              Out_channel.with_open_text path (fun oc ->
                  Out_channel.output_string oc (Flight.dump_to_perfetto d));
              Printf.printf "flight dump (rank %d, %s) written to %s\n" d.Flight.d_rank
                d.Flight.d_reason path));
          r.t_violations)
    in
    Term.(
      ret
        (const go $ Harness.nodes default.size $ Harness.fanout default.fanout
        $ Harness.opt Arg.float [ "interval" ] ~docv:"SECONDS"
            ~doc:"Rollup epoch length in sim-seconds." default.interval
        $ Harness.opt Arg.int [ "epochs" ] ~docv:"EPOCHS" ~doc:"Rollup epochs to run."
            default.epochs
        $ Harness.opt Arg.int [ "window" ] ~docv:"W"
            ~doc:"Series ring capacity and trend-detector window, in epochs." default.window
        $ Harness.opt Arg.int [ "ppn" ] ~docv:"PPN"
            ~doc:"Work items per rank per epoch (the sampled load)." default.work_per_epoch
        $ Harness.opt (Arg.enum faults) [ "fault" ] ~docv:"KIND" default
            ~doc:
              "Injected fault: straggler (one slow rank), kill (mark_down mid-run), silent \
               (telemetry agent dies, rank stays up), growth (queue gauge ramp), or none."
        $ Harness.seed ~doc:"Workload seed." default.seed
        $ Arg.(
            value & flag
            & info [ "csv" ] ~doc:"Print the rollup series as CSV instead of the top-style table.")
        $ Harness.opt Arg.(some string) [ "flight-out" ] ~docv:"FILE" None
            ~doc:"Write the first flight-recorder dump as Perfetto trace-event JSON."))
  in
  {
    Harness.name = "telem";
    title = "live telemetry plane with an injected fault (alerts, flight dumps, rollup cost)";
    sweep;
    cli;
  }
