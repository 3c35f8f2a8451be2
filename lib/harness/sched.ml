(* Center-scale scheduling ablation harness: a pilot-style open-loop
   stream of sub-second single-node tasks is fed either to a hierarchy
   of nested Flux instances (configurable depth and per-level fanout)
   or to the centralized comparator (one flat instance), measuring
   jobs/sec, makespan, and — from the tracer's causal span chain
   (sched.submit -> sched.match -> wexec.start -> wexec.complete) —
   per-level scheduler-hop latency: the paper's log2(C)*T(G) argument,
   measured.

   The same harness doubles as wexec's chaos workload: a seeded
   assassin kills a worker rank inside one leaf instance mid-batch; a
   requeue monitor moves that leaf's failed tasks to surviving sibling
   leaves. Logical task ids ride the wexec args, and every task body
   records its executions, so the invariants are checked exactly:
   every task acked exactly once, every acked task actually executed,
   and no execution ever lands after its task's ack. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Rng = Flux_util.Rng
module Stats = Flux_util.Stats
module Session = Flux_cmb.Session
module Kvs = Flux_kvs.Kvs_module
module Wexec = Flux_modules.Wexec
module Tracer = Flux_trace.Tracer
module Metrics = Flux_trace.Metrics
module Instance = Flux_core.Instance
module Job = Flux_core.Job
module Jobspec = Flux_core.Jobspec
module Pool = Flux_core.Pool
module Workload = Flux_core.Workload
module Center = Flux_core.Center

type task_kind =
  | Sleep_tasks
      (** synthetic: pure scheduler study, no launch stack; at depth 0,
          the centralized comparator *)
  | Wexec_tasks  (** real launches through wexec with the full span chain *)

type config = {
  seed : int;
  nodes : int;  (** session size = compute nodes of the center *)
  fanout : int;  (** CMB tree fanout *)
  depth : int;  (** levels of child instances (0 = one flat instance) *)
  children : int;  (** instance-tree fanout per level *)
  tasks : int;
  policy : string;
  task_kind : task_kind;
  kill_leaf : bool;  (** kill a worker rank of leaf 0 mid-batch *)
  kill_frac : float;  (** strike once this fraction of tasks has acked *)
  revive_after : float;
}

(* Requeues allowed per logical task. *)
let max_requeues = 5

let default =
  {
    seed = 1;
    nodes = 16;
    fanout = 2;
    depth = 2;
    children = 2;
    tasks = 200;
    policy = "fcfs";
    task_kind = Wexec_tasks;
    kill_leaf = false;
    kill_frac = 0.25;
    revive_after = 1.0;
  }

type level = {
  lv_depth : int;  (** 0 = root *)
  lv_jobs : int;  (** matches observed at this level *)
  lv_submit_match_mean : float;  (** scheduler-hop latency (wait in queue) *)
  lv_submit_match_p95 : float;
}

type report = {
  r_depth : int;
  r_children : int;
  r_leaves : int;
  r_tasks : int;
  r_acked : int;  (** logical tasks whose job completed *)
  r_failed_jobs : int;  (** job attempts that ended Failed (pre-requeue) *)
  r_requeues : int;
  r_kills : int;
  r_revives : int;
  r_makespan : float;  (** last task completion - first task submission *)
  r_jobs_per_s : float;
  r_mean_wait : float;
  r_sched_cycles : int;  (** summed over every instance in the tree *)
  r_levels : level list;  (** per-level hop decomposition, root first *)
  r_hop_match_start_mean : float;  (** sched.match -> wexec.start *)
  r_hop_start_complete_mean : float;  (** wexec.start -> wexec.complete *)
  r_spans : (string * int) list;  (** span-chain counter fingerprint *)
  r_wexec_started : int;
  r_wexec_done : int;
  r_violations : string list;
  r_final_clock : float;
  r_sim_events : int;
}

(* --- Hierarchical run ----------------------------------------------------- *)

type task_state = {
  mutable ts_acked_at : float;  (** < 0.0: not acked *)
  mutable ts_acks : int;
  mutable ts_execs : int;
  mutable ts_requeues : int;
}

type state = {
  cfg : config;
  eng : Engine.t;
  sess : Session.t;
  root : Instance.t;
  tracer : Tracer.t;
  tasks : task_state array;  (** indexed by logical task id *)
  h : History.t;
  mutable requeues : int;
}

let prog_name = "sched.task"

let time_limit = 600.0

let tid_of_payload = function
  | Job.App { args; _ } -> (
    match Json.member_opt "tid" args with Some t -> Some (Json.to_int t) | None -> None)
  | Job.Sleep _ | Job.Child _ | Job.Nested _ -> None

(* The pilot task body: compute for the assigned duration, then record
   the execution against the logical task id. A task killed mid-sleep
   (worker death) never reaches the record — exactly the semantics the
   at-most-once-per-ack invariant needs. *)
let task_body st (ctx : Wexec.proc_ctx) =
  let d = Json.to_float (Json.member "duration" ctx.px_args) in
  Proc.sleep d;
  let tid = Json.to_int (Json.member "tid" ctx.px_args) in
  let ts = st.tasks.(tid) in
  ts.ts_execs <- ts.ts_execs + 1;
  if ts.ts_acked_at >= 0.0 then
    History.violate st.h "task %d executed after its ack (execs=%d)" tid ts.ts_execs

let rec instances st i = i :: List.concat_map (instances st) (Instance.children i)

let leaves st =
  List.filter (fun i -> Instance.children i = [] && Instance.depth i = st.cfg.depth)
    (instances st st.root)

(* Leaf-task jobs across the whole tree (requeues included). *)
let task_jobs st =
  List.concat_map
    (fun i ->
      List.filter
        (fun (j : Job.t) ->
          match j.Job.job_payload with
          | Job.Sleep _ | Job.App _ -> true
          | Job.Child _ | Job.Nested _ -> false)
        (Instance.jobs i))
    (instances st st.root)

let acked_count st =
  Array.fold_left (fun acc ts -> if ts.ts_acks > 0 then acc + 1 else acc) 0 st.tasks

(* A task is resolved when acked, or when its requeue budget is spent
   (the monitor stops waiting for it; the final audit flags it). *)
let unresolved st =
  Array.exists
    (fun ts -> ts.ts_acks = 0 && ts.ts_requeues <= max_requeues)
    st.tasks

(* --- Chaos: leaf kill + requeue monitor ----------------------------------- *)

let assassin st =
  let rng = Rng.split (Rng.create st.cfg.seed) in
  let threshold =
    max 1 (int_of_float (st.cfg.kill_frac *. float_of_int st.cfg.tasks))
  in
  while acked_count st < threshold && Engine.now st.eng < time_limit do
    Proc.sleep 0.002
  done;
  Proc.sleep (Rng.float rng 0.01);
  match leaves st with
  | [] -> History.violate st.h "assassin found no leaf instance"
  | leaf :: _ -> (
    (* Kill a worker rank owned by the first leaf — never rank 0 (the
       wexec/KVS master is fixed there). Prefer a rank that is busy
       running a task so the strike exercises wexec's death-accounting
       path, not just pool bookkeeping. *)
    let busy =
      List.concat_map
        (fun (j : Job.t) -> j.Job.granted_nodes)
        (List.filter (fun (j : Job.t) -> j.Job.jstate = Job.Running) (Instance.jobs leaf))
    in
    let candidates =
      List.filter (fun r -> r <> 0)
        (busy @ Pool.free_node_list (Instance.pool leaf))
    in
    match candidates with
    | [] -> History.violate st.h "assassin found no killable rank in leaf %s" (Instance.name leaf)
    | v :: _ -> History.outage st.h v ~for_:st.cfg.revive_after)

(* Requeue failed task attempts onto a surviving sibling leaf: the
   logical task id rides along, the jobid is fresh (wexec requires
   fresh ids), and acked tasks are never requeued — that is exactly the
   no-double-execution guarantee under test. Event-driven: one
   {!Instance.on_job_failed} registration at the root sees every
   descendant leaf's failures the instant they transition, instead of a
   polling scan over every job record. *)
let install_monitor st =
  let requeued_jids : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let pick_target =
    let cursor = ref 0 in
    fun () ->
      let ls = leaves st in
      let n = List.length ls in
      let ok i =
        let pool = Instance.pool i in
        Pool.total_nodes pool >= 1
        && List.for_all (fun r -> not (Session.is_down st.sess r))
             (Pool.free_node_list pool)
      in
      let rec scan k =
        if k >= n then None
        else
          let c = List.nth ls ((!cursor + k) mod n) in
          if ok c then begin
            cursor := (!cursor + k + 1) mod n;
            Some c
          end
          else scan (k + 1)
      in
      scan 0
  in
  let rec handle _owner (j : Job.t) =
    match j.Job.jstate with
    | Job.Failed _ when not (Hashtbl.mem requeued_jids j.Job.jid) -> (
      Hashtbl.replace requeued_jids j.Job.jid ();
      match tid_of_payload j.Job.job_payload with
      | None -> ()
      | Some tid ->
        let ts = st.tasks.(tid) in
        if ts.ts_acks = 0 && ts.ts_requeues < max_requeues then begin
          ts.ts_requeues <- ts.ts_requeues + 1;
          match pick_target () with
          | None ->
            (* No live leaf right now (a revive may be in flight):
               give the budget back and retry shortly. *)
            ts.ts_requeues <- ts.ts_requeues - 1;
            Hashtbl.remove requeued_jids j.Job.jid;
            if Engine.now st.eng < time_limit then
              ignore
                (Engine.schedule st.eng ~delay:0.001 (fun () -> handle _owner j)
                  : Engine.handle)
          | Some target ->
            st.requeues <- st.requeues + 1;
            ignore
              (Instance.submit target ~spec:j.Job.spec ~payload:j.Job.job_payload
                : Job.t)
        end)
    | _ -> ()
  in
  Instance.on_job_failed st.root handle

(* --- Span-chain decomposition --------------------------------------------- *)

let level_decomposition st =
  let submits : (string, float * int) Hashtbl.t = Hashtbl.create 1024 in
  let matches : (string, float) Hashtbl.t = Hashtbl.create 1024 in
  let starts : (string, float) Hashtbl.t = Hashtbl.create 1024 in
  let completes : (string, float) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun (e : Tracer.event) ->
      let jid () = Json.to_string_v (Json.member "jid" (Json.obj e.Tracer.ev_fields)) in
      match (e.Tracer.ev_cat, e.Tracer.ev_name) with
      | "sched", "submit" ->
        let d = Json.to_int (Json.member "depth" (Json.obj e.Tracer.ev_fields)) in
        Hashtbl.replace submits (jid ()) (e.Tracer.ev_ts, d)
      | "sched", "match" -> Hashtbl.replace matches (jid ()) e.Tracer.ev_ts
      | "wexec", "start" ->
        let jobid =
          Json.to_string_v (Json.member "jobid" (Json.obj e.Tracer.ev_fields))
        in
        if not (Hashtbl.mem starts jobid) then
          Hashtbl.replace starts jobid e.Tracer.ev_ts
      | "wexec", "complete" ->
        let jobid =
          Json.to_string_v (Json.member "jobid" (Json.obj e.Tracer.ev_fields))
        in
        Hashtbl.replace completes jobid e.Tracer.ev_ts
      | _ -> ())
    (Tracer.events st.tracer);
  let per_level : (int, Stats.t) Hashtbl.t = Hashtbl.create 8 in
  let match_start = Stats.create () in
  let start_complete = Stats.create () in
  Hashtbl.iter
    (fun jid (t_submit, d) ->
      match Hashtbl.find_opt matches jid with
      | None -> ()
      | Some t_match ->
        let s =
          match Hashtbl.find_opt per_level d with
          | Some s -> s
          | None ->
            let s = Stats.create () in
            Hashtbl.replace per_level d s;
            s
        in
        Stats.add s (t_match -. t_submit);
        (* A revived rank replays the [wexec.exec] events it missed and
           starts jobs the master already counted as failed; such a
           start lands after the job's complete and belongs to neither
           hop. *)
        match (Hashtbl.find_opt starts jid, Hashtbl.find_opt completes jid) with
        | Some t_start, Some t_c when t_start > t_c -> ()
        | Some t_start, t_c ->
          Stats.add match_start (t_start -. t_match);
          Option.iter (fun t_c -> Stats.add start_complete (t_c -. t_start)) t_c
        | None, _ -> ())
    submits;
  let levels =
    List.sort (fun a b -> compare a.lv_depth b.lv_depth)
      (Hashtbl.fold
         (fun d s acc ->
           {
             lv_depth = d;
             lv_jobs = Stats.count s;
             lv_submit_match_mean = Stats.mean s;
             lv_submit_match_p95 = Stats.percentile s 0.95;
           }
           :: acc)
         per_level [])
  in
  ( levels,
    (if Stats.count match_start = 0 then 0.0 else Stats.mean match_start),
    if Stats.count start_complete = 0 then 0.0 else Stats.mean start_complete )

(* --- Audit ----------------------------------------------------------------- *)

let audit st =
  (* Fold the end state of every task-job into the per-task ledger,
     then check the exactly-once story. Sleep payloads carry no logical
     task id (nothing executes, nothing can double-execute), so the
     ledger audit only applies to wexec tasks. *)
  if st.cfg.task_kind = Wexec_tasks then begin
  List.iter
    (fun (j : Job.t) ->
      match tid_of_payload j.Job.job_payload with
      | None -> ()
      | Some tid ->
        let ts = st.tasks.(tid) in
        (match j.Job.jstate with
        | Job.Complete ->
          ts.ts_acks <- ts.ts_acks + 1;
          ts.ts_acked_at <-
            (if ts.ts_acked_at < 0.0 then j.Job.end_time
             else Float.min ts.ts_acked_at j.Job.end_time)
        | _ -> ()))
    (task_jobs st);
  Array.iteri
    (fun tid ts ->
      if ts.ts_acks = 0 then
        History.violate st.h "task %d lost: never acked (requeues %d)" tid ts.ts_requeues
      else if ts.ts_acks > 1 then History.violate st.h "task %d acked %d times" tid ts.ts_acks;
      if ts.ts_acks > 0 && ts.ts_execs = 0 then
        History.violate st.h "task %d acked but never executed" tid;
      if ts.ts_execs > ts.ts_requeues + 1 then
        History.violate st.h "task %d executed %d times with only %d requeues" tid ts.ts_execs
          ts.ts_requeues)
    st.tasks
  end

(* Live ack bookkeeping so the assassin/monitor can pace themselves
   without waiting for the final audit: poll completions incrementally. *)
let ack_watcher st =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let done_ () =
    (not (unresolved st)) || Engine.now st.eng >= time_limit
  in
  while not (done_ ()) do
    List.iter
      (fun (j : Job.t) ->
        if j.Job.jstate = Job.Complete && not (Hashtbl.mem seen j.Job.jid) then begin
          Hashtbl.replace seen j.Job.jid ();
          match tid_of_payload j.Job.job_payload with
          | None -> ()
          | Some tid ->
            let ts = st.tasks.(tid) in
            if ts.ts_acks = 0 then begin
              ts.ts_acks <- 1;
              ts.ts_acked_at <- j.Job.end_time
            end
            else History.violate st.h "task %d acked twice (live)" tid
        end)
      (task_jobs st);
    Proc.sleep 0.001
  done

let leaf_count cfg = int_of_float (float_of_int cfg.children ** float_of_int cfg.depth)

let validate cfg =
  let known_policy =
    match Flux_core.Policy.by_name cfg.policy with _ -> true | exception Invalid_argument _ -> false
  in
  Harness.require
    [
      (cfg.nodes >= 2, "nodes must be >= 2");
      (cfg.fanout >= 2, "fanout must be >= 2");
      (cfg.depth >= 0 && cfg.depth <= 4, "depth must be in [0,4]");
      (cfg.children >= 2, "children must be >= 2");
      ( cfg.depth = 0
        || float_of_int cfg.children ** float_of_int cfg.depth <= float_of_int cfg.nodes,
        "children^depth leaves exceed the nodes" );
      (cfg.tasks >= 1, "tasks must be >= 1");
      (cfg.seed >= 1, "seed must be >= 1");
      (known_policy, "unknown policy " ^ cfg.policy);
      (not cfg.kill_leaf || cfg.task_kind = Wexec_tasks, "kill_leaf requires Wexec_tasks");
    ]

let run cfg =
  Result.iter_error (fun e -> invalid_arg ("Sched.run: " ^ e)) (validate cfg);
  let leaves_n = leaf_count cfg in
  let c =
    Center.create ~nodes:cfg.nodes ~fanout:cfg.fanout ~policy:cfg.policy ~name:"sched" ()
  in
  let eng = c.Center.eng and sess = c.Center.sess and root = c.Center.root in
  let tracer = Tracer.create ~capacity:2_000_000 ~now:(fun () -> Engine.now eng) () in
  let metrics = Metrics.create () in
  Kvs.set_metrics_all c.Center.kvs metrics;
  Wexec.set_tracer_all c.Center.wexec (Some tracer);
  Wexec.set_metrics_all c.Center.wexec metrics;
  Instance.set_tracer root (Some tracer);
  let st =
    {
      cfg;
      eng;
      sess;
      root;
      tracer;
      tasks =
        Array.init cfg.tasks (fun _ ->
            { ts_acked_at = -1.0; ts_acks = 0; ts_execs = 0; ts_requeues = 0 });
      h = History.create sess;
      requeues = 0;
    }
  in
  Wexec.register_program prog_name (task_body st);
  let rng = Rng.create cfg.seed in
  let prog = match cfg.task_kind with Sleep_tasks -> "" | Wexec_tasks -> prog_name in
  let stream = Workload.pilot_tasks rng ~n:cfg.tasks ~prog () in
  let plan =
    Workload.nest ~depth:cfg.depth ~children:cfg.children ~policy:cfg.policy
      ~nnodes:cfg.nodes stream
  in
  Instance.submit_plan root plan;
  if cfg.kill_leaf then begin
    install_monitor st;
    ignore (Proc.spawn eng ~name:"sched-assassin" (fun () -> assassin st) : Proc.pid);
    ignore (Proc.spawn eng ~name:"sched-acks" (fun () -> ack_watcher st) : Proc.pid)
  end;
  Engine.run eng;
  (* Reset the live ledger and audit from ground truth (job records). *)
  Array.iter
    (fun ts ->
      ts.ts_acks <- 0;
      ts.ts_acked_at <- -1.0)
    st.tasks;
  audit st;
  let tjobs = task_jobs st in
  let completed = List.filter (fun (j : Job.t) -> j.Job.jstate = Job.Complete) tjobs in
  let failed =
    List.filter
      (fun (j : Job.t) -> match j.Job.jstate with Job.Failed _ -> true | _ -> false)
      tjobs
  in
  let first_submit =
    List.fold_left (fun acc (j : Job.t) -> Float.min acc j.Job.submit_time) infinity tjobs
  in
  let last_end =
    List.fold_left (fun acc (j : Job.t) -> Float.max acc j.Job.end_time) 0.0 completed
  in
  let makespan = if completed = [] then 0.0 else last_end -. first_submit in
  let waits = List.map Job.wait_time completed in
  let sched_cycles =
    List.fold_left
      (fun acc i -> acc + (Instance.stats i).Instance.st_sched_cycles)
      0 (instances st st.root)
  in
  let levels, hop_ms, hop_sc = level_decomposition st in
  let spans =
    List.map
      (fun (cat, name) -> (cat ^ "." ^ name, Tracer.count tracer ~cat ~name))
      [ ("sched", "submit"); ("sched", "match"); ("wexec", "start"); ("wexec", "complete") ]
  in
  {
    r_depth = cfg.depth;
    r_children = cfg.children;
    r_leaves = (if cfg.depth = 0 then 1 else leaves_n);
    r_tasks = cfg.tasks;
    r_acked =
      (match cfg.task_kind with
      | Wexec_tasks -> acked_count st
      | Sleep_tasks -> List.length completed);
    r_failed_jobs = List.length failed;
    r_requeues = st.requeues;
    r_kills = History.kills st.h;
    r_revives = History.revives st.h;
    r_makespan = makespan;
    r_jobs_per_s =
      (if makespan > 0.0 then float_of_int (List.length completed) /. makespan else 0.0);
    r_mean_wait =
      (if waits = [] then 0.0
       else List.fold_left ( +. ) 0.0 waits /. float_of_int (List.length waits));
    r_sched_cycles = sched_cycles;
    r_levels = levels;
    r_hop_match_start_mean = hop_ms;
    r_hop_start_complete_mean = hop_sc;
    r_spans = spans;
    r_wexec_started = Metrics.counter_total metrics ~name:"wexec.tasks.started";
    r_wexec_done = Metrics.counter_total metrics ~name:"wexec.tasks.done";
    r_violations = History.violations st.h;
    r_final_clock = Engine.now eng;
    r_sim_events = Engine.events_executed eng;
  }

(* --- Centralized comparator ------------------------------------------------ *)

(* The traditional monolithic RJMS under Flux's own cost model: one
   flat root instance deciding for the whole pool and queue on one
   scheduler CPU, fed the identical pilot stream (same seed, so the
   same durations and arrivals) as pure timers. Having no launch stack
   only flatters it: the hierarchy pays wexec RPCs on top and must
   still win. *)
let comparator cfg = run { cfg with depth = 0; task_kind = Sleep_tasks; kill_leaf = false }

(* --- Reporting ------------------------------------------------------------- *)

let level_row lv =
  [
    ("level", Json.int lv.lv_depth);
    ("jobs", Json.int lv.lv_jobs);
    ("submit_match_mean", Json.float lv.lv_submit_match_mean);
    ("submit_match_p95", Json.float lv.lv_submit_match_p95);
  ]

let row (r : report) =
  [
    ("depth", Json.int r.r_depth);
    ("children", Json.int r.r_children);
    ("leaves", Json.int r.r_leaves);
    ("tasks", Json.int r.r_tasks);
    ("acked", Json.int r.r_acked);
    ("jobs_per_s", Json.float r.r_jobs_per_s);
    ("makespan", Json.float r.r_makespan);
    ("mean_wait", Json.float r.r_mean_wait);
    ("sched_cycles", Json.int r.r_sched_cycles);
    ("hop_match_start_mean", Json.float r.r_hop_match_start_mean);
    ("hop_start_complete_mean", Json.float r.r_hop_start_complete_mean);
    ("levels", Json.list (List.map (fun lv -> Json.obj (level_row lv)) r.r_levels));
    ("requeues", Json.int r.r_requeues);
    ("kills", Json.int r.r_kills);
    ("violations", Json.int (List.length r.r_violations));
  ]

let central_row (c : report) =
  [
    ("completed", Json.int c.r_acked);
    ("jobs_per_s", Json.float c.r_jobs_per_s);
    ("makespan", Json.float c.r_makespan);
    ("mean_wait", Json.float c.r_mean_wait);
    ("sched_cycles", Json.int c.r_sched_cycles);
  ]

let speedup r c = if c.r_jobs_per_s > 0.0 then r.r_jobs_per_s /. c.r_jobs_per_s else 0.0

(* --- Bench sweep ----------------------------------------------------------- *)

let harness =
  let sweep ~fast =
    let nodes = if fast then 16 else 32 in
    let tasks = if fast then 400 else 1200 in
    let base = { default with nodes; tasks } in
    let report_row (label, r) = ("config", Json.string label) :: row r in
    (* Curve 1: throughput vs hierarchy depth at fixed fanout 2 — the
       paper's log2(C)*T(G) argument. Depth 0 is one flat Flux instance
       launching through wexec; the central comparator is the same flat
       instance on pure timers. *)
    let central = comparator base in
    let depth_runs =
      List.map
        (fun depth -> (Printf.sprintf "depth-%d" depth, run { base with depth }))
        [ 0; 1; 2; 3 ]
    in
    (* Curve 2: throughput vs hierarchy fanout at depth 1 — wider trees
       shrink T(G) per level but shorten the tree; the sweet spot moves
       with the task grain, which is the tunability argument. *)
    let fanout_runs =
      List.filter_map
        (fun children ->
          if nodes / children < 1 then None
          else Some (Printf.sprintf "fanout-%d" children, run { base with depth = 1; children }))
        [ 2; 4; 8 ]
    in
    (* Curve 3: the chaos row — kill a worker rank of leaf 0 mid-batch and
       let the surviving siblings drain the backlog via requeues. The
       invariant set (no lost task, no double ack, no exec-after-ack) must
       hold with zero violations. *)
    let chaos_run =
      ("chaos-leaf", run { base with kill_leaf = true; tasks = (if fast then 200 else 600) })
    in
    let runs = depth_runs @ fanout_runs @ [ chaos_run ] in
    let central_row = central_row central in
    Harness.print_table
      (List.map report_row runs
      @ [
          ("config", Json.string "central")
          :: ("acked", List.assoc "completed" central_row)
          :: central_row;
        ]);
    Harness.print_table
      (List.concat_map
         (fun (label, r) ->
           List.map (fun lv -> ("config", Json.string label) :: level_row lv) r.r_levels)
         depth_runs);
    (* Headline: the hierarchy must beat the monolithic controller once
       it is at least two levels deep. *)
    let speedup =
      match List.assoc_opt "depth-2" depth_runs with Some r -> speedup r central | None -> 0.0
    in
    Printf.printf "  hierarchical depth-2 vs central: %.2fx jobs/s\n%!" speedup;
    let rows runs = Json.list (List.map (fun x -> Json.obj (report_row x)) runs) in
    {
      Harness.doc =
        Json.obj
          [
            ("experiment", Json.string "sched");
            ("nodes", Json.int nodes);
            ("tasks", Json.int tasks);
            ("mean_duration", Json.float Workload.pilot_mean_duration);
            ("policy", Json.string base.policy);
            ("central", Json.obj central_row);
            ("depth_rows", rows depth_runs);
            ("fanout_rows", rows fanout_runs);
            ("chaos", Json.obj (report_row chaos_run));
            ("tier", Harness.tier ~fast);
          ];
      violations =
        List.concat_map (fun (label, r) -> Harness.labelled label r.r_violations) runs
        @ Harness.check (speedup > 1.0)
            (Printf.sprintf "depth-2 hierarchy at %.2fx of central jobs/s (must beat 1x)"
               speedup);
      host = [];
    }
  in
  let cli =
    let open Cmdliner in
    let int names docv doc v = Harness.opt Arg.int names ~docv ~doc v in
    let go nodes fanout depth children tasks seed policy central kill_leaf =
      let cfg = { default with nodes; fanout; depth; children; tasks; seed; policy; kill_leaf } in
      Harness.validated (validate cfg) (fun () ->
          let r = run cfg in
          Harness.print_row (row r);
          if central then begin
            let c = comparator cfg in
            Harness.print_row (central_row c);
            Printf.printf "hierarchy/central throughput: %.2fx\n" (speedup r c)
          end;
          r.r_violations)
    in
    Term.(
      ret
        (const go $ Harness.nodes default.nodes $ Harness.fanout default.fanout
        $ int [ "depth" ] "DEPTH" "Levels of nested child instances (0 = one flat instance)."
            default.depth
        $ int [ "children" ] "C" "Instance-tree fan-out per level." default.children
        $ int [ "tasks" ] "N" "Pilot tasks to submit." default.tasks
        $ Harness.seed ~doc:"Workload seed." default.seed
        $ Harness.opt Arg.string [ "policy" ] ~docv:"POLICY"
            ~doc:"Scheduling policy at every level." default.policy
        $ Arg.(
            value & flag
            & info [ "central" ]
                ~doc:
                  "Also run the centralized comparator: one flat instance scheduling the \
                   same stream as pure timers.")
        $ Arg.(
            value & flag
            & info [ "kill-leaf" ]
                ~doc:
                  "Kill a worker rank of the first leaf instance mid-batch; surviving sibling \
                   leaves drain the backlog via requeues.")))
  in
  {
    Harness.name = "sched";
    title = "hierarchical vs centralized scheduling of a pilot-style task storm";
    sweep;
    cli;
  }
