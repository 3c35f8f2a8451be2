(* Elasticity soak harness: one seeded bursty task stream, three
   protection regimes. The collapse mechanism is the instance cost
   model itself — scheduler-cycle cost grows with queue length, so an
   unbounded queue slows the very cycles that could drain it. The
   protected regime bounds the queue by shedding arrivals (the PR 5
   admission analog at the submission side); the elastic regime keeps
   the same bound but lets the controller buy capacity from the root's
   free headroom when the rolled-up queue gauge climbs. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Rng = Flux_util.Rng
module Session = Flux_cmb.Session
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Tracer = Flux_trace.Tracer
module Metrics = Flux_trace.Metrics
module Flight = Flux_trace.Flight
module Detect = Flux_trace.Detect
module Tmod = Flux_modules.Telem
module Wexec = Flux_modules.Wexec
module Instance = Flux_core.Instance
module Jobspec = Flux_core.Jobspec
module Job = Flux_core.Job
module Pool = Flux_core.Pool
module Ctl = Flux_core.Elastic

type mode = Unprotected | Protected | Elastic

let mode_to_string = function
  | Unprotected -> "unprotected"
  | Protected -> "protected"
  | Elastic -> "elastic"

type config = {
  seed : int;
  size : int;
  fanout : int;
  child_nodes : int;
  mode : mode;
  duration : float;
  drain : float;
  queue_cap : int;
  policy : Ctl.policy;
  silence_at : float option;
}

(* Off-burst arrival rate (tasks/s), its multiplier during the burst
   half, and the square-wave period (burst = first half). *)
let base_rate = 15.0
let burst_factor = 4.0
let burst_period = 1.0

(* Exponential task durations: mean and floor. *)
let mean_duration = 0.2
let min_duration = 0.02

(* Telemetry plane: rollup epoch, trend window, queue-growth alert slope
   (units/epoch). *)
let telem_interval = 0.25
let telem_window = 16
let slope_threshold = 3.0

(* A heavier per-job cycle cost than the default model: this is the
   regime the paper's admission-control argument lives in, where an
   unbounded queue slows the very scheduler that must drain it. At the
   protected cap (40) a cycle costs ~80 ms — painful but below the
   200 ms mean task, so goodput plateaus; an unbounded queue in the
   hundreds pushes cycles past the task duration and the collapse feeds
   itself. *)
let cost_model = { Instance.default_cost_model with Instance.decision_per_job = 2e-3 }

(* No grow may fire later than this after arrivals stop. *)
let converge_margin = 1.0

let default =
  {
    seed = 1;
    size = 32;
    fanout = 2;
    child_nodes = 4;
    mode = Elastic;
    duration = 6.0;
    drain = 2.0;
    queue_cap = 40;
    policy =
      {
        Ctl.p_metric = "elastic.queue";
        p_high = 12.0;
        p_low = 3.0;
        p_step = 4;
        p_min_nodes = 2;
        p_max_nodes = 24;
        p_cooldown = 0.5;
        p_period = 0.25;
        (* Pressure-driven for the soak: sheds pin the queue at the cap,
           flattening the slope, so alert-gated grows would stall after
           the first step. Alerts still fire and are counted. *)
        p_require_alert = false;
        p_silence = 1.0;
      };
    silence_at = None;
  }

type report = {
  e_mode : mode;
  e_offered : int;
  e_submitted : int;
  e_shed : int;
  e_acked : int;
  e_failed : int;
  e_cancelled : int;
  e_goodput : float;
  e_queue_peak : int;
  e_nodes_final : int;
  e_nodes_peak : int;
  e_grows : int;
  e_shrinks : int;
  e_denied : int;
  e_drains : int;
  e_decisions : int;
  e_fallback_entries : int;
  e_telem_epochs : int;
  e_alerts : int;
  e_write_loss : int;
  e_trajectory : (float * int) list;
  e_fingerprint : string;
  e_violations : string list;
  e_events : int;
}

let prog_name = "elastic.task"
let key_of_tid tid = Printf.sprintf "elastic.t%d" tid

(* The task body: compute, then commit the result to the KVS before
   completing. A task preempted mid-body never reaches the commit of
   the final epoch of work — but its requeued attempt does, which is
   exactly what the acked-write audit verifies. *)
let task_body (ctx : Wexec.proc_ctx) =
  let d = Json.to_float (Json.member "duration" ctx.px_args) in
  let tid = Json.to_int (Json.member "tid" ctx.px_args) in
  Proc.sleep d;
  (match Client.put ctx.px_kvs ~key:(key_of_tid tid) (Json.int tid) with
  | Ok () -> ()
  | Error e -> failwith ("elastic task put: " ^ e));
  match Client.commit ctx.px_kvs with
  | Ok _ -> ()
  | Error e -> failwith ("elastic task commit: " ^ e)

let validate cfg =
  match Ctl.validate_policy cfg.policy with
  | Error e -> Error ("policy: " ^ e)
  | Ok () ->
    Harness.require
      [
        (cfg.size >= 8, "size must be >= 8");
        (cfg.fanout >= 2, "fanout must be >= 2");
        ( cfg.child_nodes >= 2 && cfg.child_nodes < cfg.size,
          Printf.sprintf "child_nodes must be in 2..%d (size - 1)" (cfg.size - 1) );
        (cfg.duration > 0.0 && cfg.drain >= 0.0, "duration must be positive, drain non-negative");
        (Option.fold ~none:true ~some:(( <= ) 0.0) cfg.silence_at, "silence_at must be >= 0");
        (cfg.queue_cap >= 1 && cfg.seed >= 1, "queue_cap and seed must be >= 1");
      ]

let run cfg =
  Result.iter_error (fun e -> invalid_arg ("Elastic.run: " ^ e)) (validate cfg);
  let t_end = cfg.duration +. cfg.drain in
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout:cfg.fanout ~size:cfg.size () in
  let kvs_mod = Kvs.load sess () in
  ignore (Flux_modules.Barrier.load sess () : Flux_modules.Barrier.t array);
  let wexec = Wexec.load sess () in
  let tracer = Tracer.create ~capacity:1_000_000 ~now:(fun () -> Engine.now eng) () in
  let metrics = Metrics.create () in
  Flux_kvs.Kvs_module.set_metrics_all kvs_mod metrics;
  Wexec.set_metrics_all wexec metrics;
  let flight = Flight.create ~capacity:128 tracer in
  let h = History.create ~flight sess in
  Wexec.register_program prog_name task_body;
  (* Telemetry plane: rolls up the queue gauge the harness publishes,
     trend-checks it, and feeds the controller. On in every mode so the
     regimes differ only in protection, not observability. *)
  let tconfig =
    {
      Tmod.default_config with
      Tmod.interval = telem_interval;
      window = telem_window;
      slope_threshold;
      queue_metrics = [ cfg.policy.Ctl.p_metric ];
    }
  in
  let telem = Tmod.load sess ~config:tconfig () in
  Tmod.set_metrics_all telem metrics;
  Tmod.set_tracer_all telem tracer;
  Tmod.set_flight_all telem flight;
  Tmod.start ~until:(t_end +. (0.25 *. telem_interval)) telem;
  (match cfg.silence_at with
  | Some at ->
    ignore (Engine.schedule eng ~delay:at (fun () -> Tmod.stop telem) : Engine.handle)
  | None -> ());
  let root =
    Instance.create_root sess ~policy:"fcfs" ~cost_model ~name:"elastic" ()
  in
  Instance.set_tracer root (Some tracer);
  (* The worker child: carved from the root, kept alive past the
     horizon by a sentinel sleep so momentary idleness between
     arrivals cannot complete the child job under the workload. *)
  let sentinel =
    {
      Job.sub_after = 0.0;
      sub_spec = Jobspec.make ~nnodes:1 ~walltime_est:(t_end +. 1.0) ();
      sub_payload = Job.Sleep (t_end +. 0.5);
    }
  in
  ignore
    (Instance.submit root
       ~spec:(Jobspec.make ~nnodes:cfg.child_nodes ~walltime_est:(t_end +. 1.0) ())
       ~payload:(Job.Child { policy = "fcfs"; workload = [ sentinel ] })
      : Job.t);
  let child = ref None in
  let ctl = ref None in
  let offered = ref 0 in
  let submitted = ref 0 in
  let shed = ref 0 in
  let queue_peak = ref 0 in
  let nodes_peak = ref cfg.child_nodes in
  let trajectory = ref [] in
  let write_loss = ref 0 in
  let durations : (int, float) Hashtbl.t = Hashtbl.create 512 in
  let arr_rng = Rng.create cfg.seed in
  let rate_at now =
    let phase = Float.rem now burst_period in
    if phase < 0.5 *. burst_period then base_rate *. burst_factor else base_rate
  in
  let setup_at = 0.05 in
  ignore
    (Engine.schedule eng ~delay:setup_at (fun () ->
         let c =
           match Instance.children root with
           | [ c ] -> c
           | cs ->
             invalid_arg
               (Printf.sprintf "Elastic.run: expected 1 child, found %d" (List.length cs))
         in
         child := Some c;
         (* Elastic regime only: wire the controller to the child. *)
         (match cfg.mode with
         | Elastic ->
           let k = Ctl.create sess ~instance:c ~telem ~policy:cfg.policy () in
           Ctl.set_tracer k tracer;
           Ctl.set_metrics k metrics;
           Ctl.set_flight k flight;
           Ctl.start ~until:(t_end -. setup_at) k;
           ctl := Some k
         | Unprotected | Protected -> ());
         (* Queue gauge + trajectory sampler. *)
         let sampler =
           Engine.every eng ~period:0.05 (fun () ->
               let q = Instance.queue_length c in
               queue_peak := max !queue_peak q;
               Metrics.set_gauge metrics ~name:cfg.policy.Ctl.p_metric ~rank:0
                 (float_of_int q);
               let n = Pool.total_nodes (Instance.pool c) in
               nodes_peak := max !nodes_peak n;
               trajectory := (Engine.now eng, n) :: !trajectory)
         in
         ignore (Engine.schedule eng ~delay:(t_end -. setup_at) (fun () -> Engine.cancel sampler)
                 : Engine.handle);
         (* Open-loop bursty arrivals. The duration draw happens for
            every arrival — shed or not — so the random stream, task
            ids and durations are identical across the three modes. *)
         let rec arrive () =
           let now = Engine.now eng in
           if now < cfg.duration then begin
             let tid = !offered in
             incr offered;
             let d =
               Float.max min_duration (Rng.exponential arr_rng mean_duration)
             in
             Hashtbl.replace durations tid d;
             if cfg.mode <> Unprotected && Instance.queue_length c >= cfg.queue_cap then
               incr shed
             else begin
               incr submitted;
               ignore
                 (Instance.submit c
                    ~spec:(Jobspec.make ~nnodes:1 ~walltime_est:(2.0 *. d) ())
                    ~payload:
                      (Job.App
                         {
                           prog = prog_name;
                           args = Json.obj [ ("tid", Json.int tid) ];
                           per_rank = 1;
                           duration = d;
                         })
                   : Job.t)
             end;
             let gap = Rng.exponential arr_rng (1.0 /. rate_at now) in
             ignore (Engine.schedule eng ~delay:gap arrive : Engine.handle)
           end
         in
         arrive ())
      : Engine.handle);
  (* Horizon: cancel what never started so the unbounded regime's
     backlog does not stretch the run arbitrarily past the window the
     regimes are compared over. *)
  ignore
    (Engine.schedule eng ~delay:t_end (fun () ->
         match !child with
         | None -> ()
         | Some c ->
           List.iter
             (fun (j : Job.t) ->
               match j.Job.jstate with
               | Job.Pending ->
                 ignore (Instance.cancel c ~jid:j.Job.jid : bool)
               | _ -> ())
             (Instance.jobs c))
      : Engine.handle);
  (* Acked-write audit, after the horizon sweep and the wexec tails: a
     completed attempt's job record acks its tid's committed key. *)
  ignore
    (Engine.schedule eng ~delay:(t_end +. 0.3) (fun () ->
         ignore
           (Proc.spawn eng ~name:"elastic-audit" (fun () ->
                match !child with
                | None -> ()
                | Some c ->
                  List.iter
                    (fun (j : Job.t) ->
                      match (j.Job.jstate, j.Job.job_payload) with
                      | Job.Complete, Job.App { args; _ } ->
                        Option.iter
                          (fun t -> History.ack h (key_of_tid (Json.to_int t)) t)
                          (Json.member_opt "tid" args)
                      | _ -> ())
                    (Instance.jobs c);
                  let kv = Client.connect sess ~rank:0 in
                  let before = List.length (History.violations h) in
                  ignore (History.verify h ~label:"audit" (fun key -> Client.get kv ~key) : int);
                  write_loss := List.length (History.violations h) - before)
              : Proc.pid))
      : Engine.handle);
  Engine.run eng;
  (* --- Outcome accounting ------------------------------------------------ *)
  let c = match !child with Some c -> c | None -> invalid_arg "Elastic.run: no child" in
  let acked_tids : (int, unit) Hashtbl.t = Hashtbl.create 512 in
  let failed = ref 0 in
  let cancelled = ref 0 in
  List.iter
    (fun (j : Job.t) ->
      match (j.Job.jstate, j.Job.job_payload) with
      | Job.Complete, Job.App { args; _ } -> (
        match Json.member_opt "tid" args with
        | Some t -> Hashtbl.replace acked_tids (Json.to_int t) ()
        | None -> ())
      | Job.Failed _, Job.App _ -> incr failed
      | Job.Cancelled, Job.App _ -> incr cancelled
      | _ -> ())
    (Instance.jobs c);
  let acked = Hashtbl.length acked_tids in
  let actions = match !ctl with None -> [] | Some k -> Ctl.actions k in
  let grows =
    List.length (List.filter (fun (_, d) -> match d with Ctl.Grow _ -> true | _ -> false) actions)
  in
  let shrinks =
    List.length
      (List.filter (fun (_, d) -> match d with Ctl.Shrink _ -> true | _ -> false) actions)
  in
  (* --- Guarantees -------------------------------------------------------- *)
  (match
     List.find_opt
       (fun (j : Job.t) -> match j.Job.job_payload with Job.Sleep _ -> true | _ -> false)
       (Instance.jobs c)
   with
  | Some j when j.Job.jstate <> Job.Complete ->
    History.violate h "sentinel job ended %s" (Job.state_to_string j.Job.jstate)
  | Some _ -> ()
  | None -> History.violate h "sentinel job missing");
  (match !ctl with
  | None -> ()
  | Some k ->
    (* Convergence: once arrivals stop (plus rollup lag), growing must
       stop — a controller that keeps buying nodes for an empty queue
       has not converged. *)
    List.iter
      (fun (ts, d) ->
        match d with
        | Ctl.Grow _ when ts > cfg.duration +. converge_margin ->
          History.violate h "grow at t=%.3f, %.3f after arrivals stopped" ts (ts -. cfg.duration)
        | _ -> ())
      (Ctl.actions k);
    (match cfg.silence_at with
    | Some at ->
      if Ctl.fallback_entries k = 0 then History.violate h "telemetry went silent, no fallback";
      let deadline = at +. cfg.policy.Ctl.p_silence +. (2.0 *. cfg.policy.Ctl.p_period) in
      List.iter
        (fun (ts, _) ->
          if ts > deadline then History.violate h "action at t=%.3f on silent telemetry" ts)
        (Ctl.actions k)
    | None ->
      if Tmod.alerts telem = [] then History.violate h "overload ran but telemetry never alerted"));
  if cfg.mode = Unprotected && !shed > 0 then History.violate h "unprotected mode shed arrivals";
  let alerts = Tmod.alerts telem in
  let fingerprint =
    let ctl_fp = match !ctl with None -> "-" | Some k -> Ctl.fingerprint k in
    let alert_fp =
      String.concat ";"
        (List.map
           (fun (a : Detect.alert) ->
             Printf.sprintf "%s:%d:%d"
               (Detect.kind_to_string a.Detect.al_kind)
               a.Detect.al_epoch a.Detect.al_rank)
           alerts)
    in
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%s|%d|%d|%d|%s|%d|%d" ctl_fp !offered !shed acked alert_fp
            (Engine.events_executed eng)
            (Pool.total_nodes (Instance.pool c))))
  in
  {
    e_mode = cfg.mode;
    e_offered = !offered;
    e_submitted = !submitted;
    e_shed = !shed;
    e_acked = acked;
    e_failed = !failed;
    e_cancelled = !cancelled;
    e_goodput = float_of_int acked /. cfg.duration;
    e_queue_peak = !queue_peak;
    e_nodes_final = Pool.total_nodes (Instance.pool c);
    e_nodes_peak = !nodes_peak;
    e_grows = grows;
    e_shrinks = shrinks;
    e_denied = (match !ctl with None -> 0 | Some k -> Ctl.denied k);
    e_drains = (match !ctl with None -> 0 | Some k -> Ctl.drains k);
    e_decisions = (match !ctl with None -> 0 | Some k -> List.length (Ctl.decisions k));
    e_fallback_entries = (match !ctl with None -> 0 | Some k -> Ctl.fallback_entries k);
    e_telem_epochs = Tmod.epochs_completed telem;
    e_alerts = List.length alerts;
    e_write_loss = !write_loss;
    e_trajectory = List.rev !trajectory;
    e_fingerprint = fingerprint;
    e_violations = History.violations h;
    e_events = Engine.events_executed eng;
  }

let row r =
  [
    ("mode", Json.string (mode_to_string r.e_mode));
    ("offered", Json.int r.e_offered);
    ("submitted", Json.int r.e_submitted);
    ("shed", Json.int r.e_shed);
    ("acked", Json.int r.e_acked);
    ("failed", Json.int r.e_failed);
    ("cancelled", Json.int r.e_cancelled);
    ("goodput_per_s", Json.float r.e_goodput);
    ("queue_peak", Json.int r.e_queue_peak);
    ("nodes_final", Json.int r.e_nodes_final);
    ("nodes_peak", Json.int r.e_nodes_peak);
    ("grows", Json.int r.e_grows);
    ("shrinks", Json.int r.e_shrinks);
    ("denied", Json.int r.e_denied);
    ("drains", Json.int r.e_drains);
    ("decisions", Json.int r.e_decisions);
    ("telem_epochs", Json.int r.e_telem_epochs);
    ("alerts", Json.int r.e_alerts);
    ("write_loss", Json.int r.e_write_loss);
    ( "node_trajectory",
      Json.list
        (List.map
           (fun (t, n) -> Json.obj [ ("t", Json.float t); ("nodes", Json.int n) ])
           r.e_trajectory) );
    ("fingerprint", Json.string r.e_fingerprint);
    ("violations", Json.strings r.e_violations);
    ("sim_events", Json.int r.e_events);
    ("fallback_entries", Json.int r.e_fallback_entries);
  ]

let recovery runs =
  let goodput m =
    List.find_map (fun r -> if r.e_mode = m then Some r.e_goodput else None) runs
    |> Option.value ~default:0.0
  in
  if goodput Protected > 0.0 then goodput Elastic /. goodput Protected else 0.0

(* --- Bench sweep ----------------------------------------------------------- *)

(* One seeded bursty task stream under the three regimes. The headline
   number is the recovery ratio — elastic goodput over protected goodput
   at the same (over-capacity) offered load — plus the safety counters:
   zero acked-write loss across every rescale and a same-seed
   fingerprint match over a double run. *)
let harness =
  let sweep ~fast =
    let base = if fast then { default with duration = 3.0; drain = 1.5 } else default in
    Printf.printf "(%d ranks, child of %d, %.1fs arrivals + %.1fs drain, cap %d)\n%!" base.size
      base.child_nodes base.duration base.drain base.queue_cap;
    let runs = List.map (fun mode -> run { base with mode }) [ Unprotected; Protected; Elastic ] in
    let recovery = recovery runs in
    let again = run { base with mode = Elastic } in
    let deterministic =
      List.exists
        (fun r -> r.e_mode = Elastic && String.equal r.e_fingerprint again.e_fingerprint)
        runs
    in
    let rows = List.map (fun r -> List.remove_assoc "fallback_entries" (row r)) runs in
    Harness.print_table rows;
    Printf.printf "  recovery ratio (elastic/protected): %.2fx\n%!" recovery;
    {
      Harness.doc =
        Json.obj
          [
            ("experiment", Json.string "elastic");
            ("tier", Harness.tier ~fast);
            ("regimes", Json.list (List.map Json.obj rows));
            ("recovery_ratio", Json.float recovery);
            ("deterministic", Json.int (if deterministic then 1 else 0));
          ];
      violations =
        List.concat_map (fun r -> Harness.labelled (mode_to_string r.e_mode) r.e_violations) runs
        @ Harness.check deterministic "same-seed elastic runs produced different fingerprints"
        @ Harness.check (recovery >= 1.5)
            (Printf.sprintf "elastic recovers only %.2fx protected goodput (bar: 1.5x)" recovery);
      host = [];
    }
  in
  let cli =
    let open Cmdliner in
    let all = [ Unprotected; Protected; Elastic ] in
    let modes = ("all", all) :: List.map (fun m -> (mode_to_string m, [ m ])) all in
    let go size fanout modes child_nodes duration drain queue_cap seed silence_at trajectory =
      let base =
        { default with seed; size; fanout; child_nodes; duration; drain; queue_cap; silence_at }
      in
      Harness.validated (validate base) (fun () ->
          let runs = List.map (fun mode -> run { base with mode }) modes in
          let shown r =
            if trajectory && r.e_mode = Elastic then row r
            else List.remove_assoc "node_trajectory" (row r)
          in
          List.iter (fun r -> Harness.print_row (shown r)) runs;
          if List.length runs > 1 then
            Printf.printf "recovery ratio (elastic/protected goodput): %.2fx\n" (recovery runs);
          List.concat_map (fun r -> r.e_violations) runs)
    in
    Term.(
      ret
        (const go $ Harness.nodes default.size $ Harness.fanout default.fanout
        $ Harness.opt (Arg.enum modes) [ "mode" ] ~docv:"MODE" all
            ~doc:
              "Protection regime: unprotected (no admission bound, no controller), protected \
               (static submission shedding), elastic (shedding plus the closed-loop \
               controller), or all (run the three-way comparison)."
        $ Harness.opt Arg.int [ "child-nodes" ] ~docv:"N" ~doc:"Worker child's initial pool size."
            default.child_nodes
        $ Harness.opt Arg.float [ "duration" ] ~docv:"SECONDS" ~doc:"Arrival window, sim-seconds."
            default.duration
        $ Harness.opt Arg.float [ "drain" ] ~docv:"SECONDS"
            ~doc:"Controller/telemetry run-on after arrivals stop." default.drain
        $ Harness.opt Arg.int [ "cap" ] ~docv:"JOBS"
            ~doc:"Queue cap for submission shedding (protected and elastic modes)."
            default.queue_cap
        $ Harness.seed ~doc:"Workload seed." default.seed
        $ Harness.opt Arg.(some float) [ "silence-at" ] ~docv:"SECONDS" default.silence_at
            ~doc:
              "Stop the telemetry plane at this sim time: exercises the telemetry-silent \
               fallback (elastic mode)."
        $ Arg.(
            value & flag
            & info [ "trajectory" ]
                ~doc:"Print the sampled (time, child nodes) trajectory for elastic runs.")))
  in
  {
    Harness.name = "elastic";
    title = "unprotected collapse vs static shed vs closed-loop autoscale";
    sweep;
    cli;
  }
