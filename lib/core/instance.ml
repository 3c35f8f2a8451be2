module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Wexec = Flux_modules.Wexec

(* The scheduler cost model. Only the per-job decision cost varies
   between instances. *)
let decision_per_job = 20e-6
let start_cost = 10e-3
let bootstrap_base = 2e-3
let bootstrap_per_node = 100e-6

let cycle_cost ~decision_per_job ~nodes ~queued =
  500e-6 +. (2e-6 *. float_of_int nodes) +. (decision_per_job *. float_of_int queued)

type t = {
  i_name : string;
  eng : Engine.t;
  sess : Session.t;
  i_pool : Pool.t;
  mutable i_policy : (module Policy.S);
  decision_per_job : float;
  i_parent : t option;
  mutable i_children : t list;
  mutable queue : Job.t list; (* pending, submission order *)
  mutable running : (Job.t * Pool.grant) list;
  mutable all_jobs : Job.t list; (* reversed *)
  mutable pending_submissions : int;
  mutable sched_armed : bool;
  mutable cpu_free_at : float; (* the instance's scheduler CPU *)
  mutable sched_cycles : int;
  mutable idle_cbs : (unit -> unit) list;
  jids : Flux_util.Idgen.t;
  (* Child bookkeeping: the parent-side job that a child instance
     realizes, so completion releases the right grant. *)
  mutable child_grant : Pool.grant option;
  mutable child_job : Job.t option;
  i_nested : bool; (* owns a dedicated comms session; pool ranks are session-local *)
  mutable tracer : Flux_trace.Tracer.t option;
  (* Live span per non-terminal job: rooted at sched.submit, re-spanned
     at sched.match, threaded through wexec for App payloads. *)
  job_ctxs : (string, Flux_trace.Tracer.ctx) Hashtbl.t;
  (* Failure hooks: fired on every transition to Failed, here and
     bubbled up the ancestor chain — the instance-resident requeue
     policy (jobs preempted by a shrink are excluded; the instance
     requeues those itself). *)
  mutable fail_hooks : (t -> Job.t -> unit) list;
  (* Drain-before-shrink bookkeeping: jobs killed to free their nodes
     for a pending donation, the attempt chain of requeued jobs
     (jid -> base, attempt), and nodes still owed to the parent. *)
  preempted : (string, unit) Hashtbl.t;
  origins : (string, string * int) Hashtbl.t;
  mutable pending_donation : int;
}

let name t = t.i_name
let pool t = t.i_pool
let children t = t.i_children

let rec depth t = match t.i_parent with None -> 0 | Some p -> 1 + depth p

let jobs t = List.rev t.all_jobs
let queue_length t = List.length t.queue
let running_count t = List.length t.running

let set_tracer t tr = t.tracer <- tr

let trace t ~name ?ctx ?fields () =
  match t.tracer with
  | Some tr -> Flux_trace.Tracer.emit tr ~cat:"sched" ~name ?ctx ?fields ()
  | None -> ()

let job_ctx t (job : Job.t) = Hashtbl.find_opt t.job_ctxs job.Job.jid

(* Open a fresh span for [job]: the root span at submit, then a child
   span per causal step (match). Terminal states drop the entry. *)
let span_job t (job : Job.t) ~name ?(fields = []) () =
  match t.tracer with
  | None -> ()
  | Some tr ->
    let ctx =
      match Hashtbl.find_opt t.job_ctxs job.Job.jid with
      | None -> Flux_trace.Tracer.root_ctx tr
      | Some parent -> Flux_trace.Tracer.child_ctx tr parent
    in
    Hashtbl.replace t.job_ctxs job.Job.jid ctx;
    Flux_trace.Tracer.emit tr ~cat:"sched" ~name ~ctx
      ~fields:
        ([
           ("jid", Flux_json.Json.string job.Job.jid);
           ("depth", Flux_json.Json.int (depth t));
         ]
        @ fields)
      ()

(* Failure hooks bubble: a leaf job's failure is visible to the leaf's
   own hooks and to every ancestor's, so a center-level requeue policy
   registers once at the root and still sees the whole tree. *)
let rec fire_fail_hooks t ~owner job =
  List.iter (fun f -> f owner job) t.fail_hooks;
  match t.i_parent with Some p -> fire_fail_hooks p ~owner job | None -> ()

let on_job_failed t f = t.fail_hooks <- t.fail_hooks @ [ f ]

let transition t job s =
  Job.set_state job ~now:(Engine.now t.eng) s;
  trace t
    ~name:("job." ^ (match s with
          | Job.Pending -> "pending"
          | Job.Allocated -> "allocated"
          | Job.Running -> "running"
          | Job.Complete -> "complete"
          | Job.Failed _ -> "failed"
          | Job.Cancelled -> "cancelled"))
    ?ctx:(job_ctx t job)
    ~fields:
      [
        ("jid", Flux_json.Json.string job.Job.jid);
        ("nodes", Flux_json.Json.int (List.length job.Job.granted_nodes));
      ]
    ();
  if Job.is_terminal s then Hashtbl.remove t.job_ctxs job.Job.jid;
  match s with
  | Job.Failed _ when not (Hashtbl.mem t.preempted job.Job.jid) ->
    fire_fail_hooks t ~owner:t job
  | _ -> ()

(* --- Idle detection ------------------------------------------------------ *)

let is_idle t = t.queue = [] && t.running = [] && t.pending_submissions = 0

let check_idle t = if is_idle t then List.iter (fun f -> f ()) t.idle_cbs

let on_idle t f = t.idle_cbs <- t.idle_cbs @ [ f ]

(* --- Scheduling cycle ------------------------------------------------------ *)

let rec kick t =
  if not t.sched_armed then begin
    t.sched_armed <- true;
    let cost =
      cycle_cost ~decision_per_job:t.decision_per_job ~nodes:(Pool.total_nodes t.i_pool)
        ~queued:(List.length t.queue)
    in
    let start = Float.max (Engine.now t.eng) t.cpu_free_at in
    t.cpu_free_at <- start +. cost;
    ignore
      (Engine.schedule_at t.eng ~time:(start +. cost) (fun () ->
           t.sched_armed <- false;
           cycle t)
        : Engine.handle)
  end

and cycle t =
  t.sched_cycles <- t.sched_cycles + 1;
  trace t ~name:"cycle" ~fields:[ ("queue", Flux_json.Json.int (List.length t.queue)) ] ();
  adjust_malleable t;
  let module P = (val t.i_policy) in
  let starts =
    P.schedule ~now:(Engine.now t.eng) ~pool:t.i_pool ~queue:t.queue ~running:t.running
  in
  let started_any = ref false in
  List.iter
    (fun { Policy.s_job = job; s_nnodes } ->
      if job.Job.jstate = Job.Pending then
        match Pool.try_grant t.i_pool ~spec:job.Job.spec ~nnodes:s_nnodes with
        | Some grant ->
          started_any := true;
          t.cpu_free_at <-
            Float.max (Engine.now t.eng) t.cpu_free_at +. start_cost;
          t.queue <- List.filter (fun j -> j != job) t.queue;
          job.Job.granted_nodes <- grant.Pool.g_nodes;
          span_job t job ~name:"match"
            ~fields:
              [
                ("nodes", Flux_json.Json.int (List.length grant.Pool.g_nodes));
                ("wait", Flux_json.Json.float (Engine.now t.eng -. job.Job.submit_time));
              ]
            ();
          transition t job Job.Allocated;
          launch t job grant
        | None -> ())
    starts;
  (* After placement, grow malleable jobs into whatever stayed idle. *)
  adjust_malleable t;
  if !started_any then () else check_idle t

(* Multilevel resource elasticity (Challenge 3): malleable running jobs
   shrink toward their minimum when other work is queued, and grow
   toward their maximum when the pool would otherwise sit idle. *)
and adjust_malleable t =
  let adjust (job, grant) =
    match job.Job.spec.Jobspec.elasticity with
    | Jobspec.Malleable (min_n, max_n) when job.Job.jstate = Job.Running ->
      let cur = List.length grant.Pool.g_nodes in
      let grant' =
        if t.queue <> [] && cur > min_n then
          Pool.shrink_grant t.i_pool grant ~spec:job.Job.spec ~release:(cur - min_n)
        else if t.queue = [] && cur < max_n then
          match
            Pool.expand_grant t.i_pool grant ~spec:job.Job.spec ~extra:(max_n - cur)
          with
          | Some g -> g
          | None -> grant
        else grant
      in
      job.Job.granted_nodes <- grant'.Pool.g_nodes;
      (job, grant')
    | _ -> (job, grant)
  in
  t.running <- List.map adjust t.running

and finish t job grant outcome =
  (* A job cancelled while its completion timer was in flight has
     already been torn down; ignore the stale event. *)
  if not (Job.is_terminal job.Job.jstate) then begin
    (match outcome with
    | Ok () -> transition t job Job.Complete
    | Error e -> transition t job (Job.Failed e));
    (* Malleable jobs may have traded nodes since launch: release the
       grant currently on record, not the one captured at launch. *)
    let current =
      match List.find_opt (fun (j, _) -> j == job) t.running with
      | Some (_, g) -> g
      | None -> grant
    in
    t.running <- List.filter (fun (j, _) -> j != job) t.running;
    Pool.release t.i_pool current;
    (* Nodes owed to the parent from a draining shrink leave before the
       scheduler can re-grant them to queued work. *)
    settle_pending_donation t;
    if Hashtbl.mem t.preempted job.Job.jid then begin
      Hashtbl.remove t.preempted job.Job.jid;
      requeue_preempted t job
    end;
    kick t;
    check_idle t
  end

and settle_pending_donation t =
  if t.pending_donation > 0 then begin
    match t.i_parent with
    | None -> t.pending_donation <- 0
    | Some p ->
      let moved = Pool.donate_nodes t.i_pool t.pending_donation in
      if moved <> [] then begin
        t.pending_donation <- t.pending_donation - List.length moved;
        Pool.absorb_nodes p.i_pool moved;
        trace t ~name:"shrink.donate"
          ~fields:[ ("nodes", Flux_json.Json.int (List.length moved)) ]
          ();
        kick p
      end
  end

(* A job killed to free its nodes for a shrink is requeued, not
   stranded: it re-enters this instance's queue under a fresh attempt
   jobid (wexec requires fresh ids, and the Checkpoint convention keeps
   its fence names from colliding with state stranded by the killed
   attempt), resuming from the newest checkpoint manifest any prior
   attempt recorded. A job the shrunken pool can no longer hold is
   handed to the {!on_job_failed} chain instead — the center-level
   policy decides where it goes. *)
and requeue_preempted t job =
  let base, k =
    match Hashtbl.find_opt t.origins job.Job.jid with
    | Some (b, k) -> (b, k)
    | None -> (job.Job.jid, 0)
  in
  let fresh = Checkpoint.attempt_jobid base (k + 1) in
  Hashtbl.replace t.origins fresh (base, k + 1);
  match job.Job.job_payload with
  | Job.App { prog; args; per_rank; duration } ->
    if Jobspec.min_nodes job.Job.spec > Pool.total_nodes t.i_pool then
      fire_fail_hooks t ~owner:t job
    else
      ignore
        (Proc.spawn t.eng ~name:("requeue-" ^ fresh) (fun () ->
             let kvs = Flux_kvs.Client.connect t.sess ~rank:0 in
             let past = List.init (k + 1) (Checkpoint.attempt_jobid base) in
             let resumed = Checkpoint.newest_across kvs ~jobids:past ~max_epoch:16 in
             let args = Checkpoint.with_resume args resumed in
             ignore
               (submit ~jid:fresh t ~spec:job.Job.spec
                  ~payload:(Job.App { prog; args; per_rank; duration })
                 : Job.t))
          : Proc.pid)
  | Job.Sleep _ | Job.Child _ | Job.Nested _ -> fire_fail_hooks t ~owner:t job

and launch t job grant =
  t.running <- (job, grant) :: t.running;
  transition t job Job.Running;
  match job.Job.job_payload with
  | Job.Sleep d ->
    ignore
      (Engine.schedule t.eng ~delay:d (fun () -> finish t job grant (Ok ()))
        : Engine.handle)
  | Job.App { prog; args; per_rank; duration } ->
    (* Watch the launch from rank 0 (the wexec master's broker), not a
       granted worker: a worker that dies mid-job stops receiving
       events, and a completion watch parked on it would strand the job
       in Running forever — the enclosing instance must observe the
       failure to requeue the work. *)
    let api = Api.connect t.sess ~rank:0 in
    let trace_ctx = job_ctx t job in
    let args =
      match args with
      | Json.Obj { fields; _ } -> Json.obj (fields @ [ ("duration", Json.float duration) ])
      | Json.Null -> Json.obj [ ("duration", Json.float duration) ]
      | other -> other
    in
    ignore
      (Proc.spawn t.eng ~name:("launch-" ^ job.Job.jid) (fun () ->
           match
             Wexec.run api ~jobid:job.Job.jid ~prog ~args ~per_rank ?trace_ctx
               ~ranks:grant.Pool.g_nodes ()
           with
           | Ok c ->
             if c.Wexec.c_failed = 0 then finish t job grant (Ok ())
             else
               finish t job grant
                 (Error (Printf.sprintf "%d/%d tasks failed" c.Wexec.c_failed c.Wexec.c_ntasks))
           | Error e -> finish t job grant (Error e))
        : Proc.pid)
  | Job.Child { policy; workload } ->
    (* Parent-bounding: the granted nodes leave this pool entirely and
       become the child's pool; power travels with the grant. *)
    Pool.remove_granted_nodes t.i_pool grant;
    let child =
      create_child t ~policy ~sess:t.sess ~nested:false
        ~nodes:grant.Pool.g_nodes
        ~power_budget:(if grant.Pool.g_power > 0.0 then grant.Pool.g_power else infinity)
        ~job ~grant
    in
    boot_child t child ~grant ~workload
  | Job.Nested { policy; workload } ->
    Pool.remove_granted_nodes t.i_pool grant;
    (* The child gets its own comms session over its nodes, with the
       standard service modules — an independent RJMS instance whose
       traffic and KVS are isolated from the parent's. Its pool is in
       the new session's rank space (0..k-1). *)
    let k = List.length grant.Pool.g_nodes in
    let sub_sess = Session.create_child t.sess ~nodes:grant.Pool.g_nodes () in
    ignore (Flux_kvs.Kvs_module.load sub_sess () : Flux_kvs.Kvs_module.t array);
    ignore (Flux_modules.Barrier.load sub_sess () : Flux_modules.Barrier.t array);
    ignore (Flux_modules.Wexec.load sub_sess () : Flux_modules.Wexec.t array);
    let child =
      create_child t ~policy ~sess:sub_sess ~nested:true
        ~nodes:(List.init k Fun.id)
        ~power_budget:(if grant.Pool.g_power > 0.0 then grant.Pool.g_power else infinity)
        ~job ~grant
    in
    boot_child t child ~grant ~workload

and boot_child t child ~grant ~workload =
    let boot =
      bootstrap_base +. (bootstrap_per_node *. float_of_int (List.length grant.Pool.g_nodes))
    in
    ignore
      (Engine.schedule t.eng ~delay:boot (fun () ->
           submit_plan child workload;
           (* An empty (or fully delayed) workload must still be able to
              complete the child job once everything drains. *)
           check_idle child)
        : Engine.handle)

and create_child t ~policy ~sess ~nested ~nodes ~power_budget ~job ~grant =
  let child =
    {
      i_name = Printf.sprintf "%s/%s" t.i_name job.Job.jid;
      eng = t.eng;
      sess;
      i_pool = Pool.create ~nodes ~power_budget ();
      i_policy = Policy.by_name policy;
      decision_per_job = t.decision_per_job;
      i_parent = Some t;
      i_children = [];
      queue = [];
      running = [];
      all_jobs = [];
      pending_submissions = 0;
      sched_armed = false;
      cpu_free_at = Engine.now t.eng;
      sched_cycles = 0;
      idle_cbs = [];
      jids = Flux_util.Idgen.create ~prefix:(job.Job.jid ^ ".") ();
      child_grant = Some grant;
      child_job = Some job;
      i_nested = nested;
      tracer = t.tracer;
      job_ctxs = Hashtbl.create 16;
      fail_hooks = [];
      preempted = Hashtbl.create 8;
      origins = Hashtbl.create 8;
      pending_donation = 0;
    }
  in
  t.i_children <- child :: t.i_children;
  (* Child-job completion: when the child instance drains, its nodes
     flow back to the parent and the parent job completes. *)
  on_idle child (fun () ->
      match (child.child_job, child.child_grant) with
      | Some j, Some g when not (Job.is_terminal j.Job.jstate) ->
        (* A nested child's pool lives in its own session's rank space;
           the parent gets back the original grant and the dedicated
           comms session is torn down. A shared child's pool is in
           parent space and may have grown or shrunk. *)
        let current_nodes =
          if child.i_nested then begin
            Session.destroy child.sess;
            g.Pool.g_nodes
          end
          else Pool.free_node_list child.i_pool
        in
        Pool.absorb_nodes t.i_pool current_nodes;
        Pool.release_consumables t.i_pool g;
        t.running <- List.filter (fun (rj, _) -> rj != j) t.running;
        transition t j Job.Complete;
        kick t;
        check_idle t
      | _ -> ());
  child

and submit_plan t subs =
  List.iter
    (fun (s : Job.submission) ->
      t.pending_submissions <- t.pending_submissions + 1;
      ignore
        (Engine.schedule t.eng ~delay:s.Job.sub_after (fun () ->
             t.pending_submissions <- t.pending_submissions - 1;
             ignore (submit t ~spec:s.Job.sub_spec ~payload:s.Job.sub_payload : Job.t))
          : Engine.handle))
    subs

and submit ?jid t ~spec ~payload =
  (match Jobspec.validate spec with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Instance.submit: %s" e));
  if Jobspec.min_nodes spec > Pool.total_nodes t.i_pool then
    invalid_arg
      (Printf.sprintf "Instance.submit: job needs %d nodes, instance owns %d"
         (Jobspec.min_nodes spec) (Pool.total_nodes t.i_pool));
  let jid =
    match jid with Some j -> j | None -> Flux_util.Idgen.next t.jids
  in
  let job = Job.create ~jid ~spec ~payload ~now:(Engine.now t.eng) in
  t.all_jobs <- job :: t.all_jobs;
  t.queue <- t.queue @ [ job ];
  span_job t job ~name:"submit"
    ~fields:[ ("queue", Flux_json.Json.int (List.length t.queue)) ]
    ();
  kick t;
  job

(* --- Elasticity --------------------------------------------------------------- *)

type resize_error =
  | Resize_invalid of int  (** non-positive node count requested *)
  | Resize_nested  (** a dedicated comms session cannot be resized *)
  | Resize_root  (** the root has no parent to trade nodes with *)
  | Resize_exhausted  (** the parent chain had no free node to move *)
  | Resize_draining of int
      (** no node moved yet, but this many are being drained: running
          tasks were preempted (and requeued) and their nodes flow to
          the parent as the grants release *)

let resize_error_to_string = function
  | Resize_invalid n -> Printf.sprintf "invalid node count %d (must be positive)" n
  | Resize_nested -> "nested instance: a dedicated comms session cannot be resized"
  | Resize_root -> "root instance: no parent to trade nodes with"
  | Resize_exhausted -> "no free nodes available to move"
  | Resize_draining n ->
    Printf.sprintf "draining: %d node%s freeing as preempted tasks requeue" n
      (if n = 1 then "" else "s")

(* A resize that moves zero nodes is an error, not Ok 0: callers that
   treated the old bare-int no-op as success silently stalled the
   elasticity loop (the roadmap's autoscaler needs the distinction). *)
let resize_guard t ~nnodes k =
  if nnodes <= 0 then Error (Resize_invalid nnodes)
  else if t.i_nested then Error Resize_nested
  else match t.i_parent with None -> Error Resize_root | Some p -> k p

let rec request_grow t ~nnodes =
  resize_guard t ~nnodes (fun p ->
      (* Parental consent: the parent serves from its free pool, asking
         its own parent for the shortfall first. *)
      let shortfall = nnodes - Pool.free_nodes p.i_pool in
      if shortfall > 0 then
        ignore (request_grow p ~nnodes:shortfall : (int, resize_error) result);
      let granted = Pool.donate_nodes p.i_pool nnodes in
      Pool.absorb_nodes t.i_pool granted;
      if granted = [] then Error Resize_exhausted
      else begin
        kick t;
        Ok (List.length granted)
      end)

(* Drain-before-shrink: when free nodes cannot cover the request, kill
   running wexec jobs (newest launch first — the least work lost) and
   requeue them under fresh attempt ids; their nodes flow to the parent
   as the grants release. Sleep jobs are pure timers that cannot be
   interrupted and Child/Nested jobs own their nodes outright, so only
   App payloads are preemptible. Returns the node count being drained. *)
let preempt_for_shrink t ~need =
  let victims =
    let rec pick covered acc = function
      | [] -> List.rev acc
      | (job, grant) :: rest ->
        if covered >= need then List.rev acc
        else begin
          match job.Job.job_payload with
          | Job.App _
            when job.Job.jstate = Job.Running
                 && not (Hashtbl.mem t.preempted job.Job.jid) ->
            pick (covered + List.length grant.Pool.g_nodes) ((job, grant) :: acc) rest
          | _ -> pick covered acc rest
        end
    in
    pick 0 [] t.running
  in
  let covered =
    List.fold_left (fun acc (_, g) -> acc + List.length g.Pool.g_nodes) 0 victims
  in
  let draining = min covered need in
  if draining > 0 then begin
    t.pending_donation <- t.pending_donation + draining;
    let api = Api.connect t.sess ~rank:0 in
    List.iter
      (fun ((job : Job.t), _) ->
        Hashtbl.replace t.preempted job.Job.jid ();
        trace t ~name:"job.preempt" ?ctx:(job_ctx t job)
          ~fields:
            [
              ("jid", Flux_json.Json.string job.Job.jid);
              ("nodes", Flux_json.Json.int (List.length job.Job.granted_nodes));
            ]
          ();
        Wexec.kill api ~jobid:job.Job.jid)
      victims
  end;
  draining

let request_shrink t ~nnodes =
  resize_guard t ~nnodes (fun p ->
      let returned = Pool.donate_nodes t.i_pool nnodes in
      Pool.absorb_nodes p.i_pool returned;
      let moved = List.length returned in
      let shortfall = nnodes - moved in
      let draining = if shortfall > 0 then preempt_for_shrink t ~need:shortfall else 0 in
      if moved > 0 then begin
        kick p;
        Ok moved
      end
      else if draining > 0 then Error (Resize_draining draining)
      else Error Resize_exhausted)

let set_power_cap t w =
  let old = Pool.power_budget t.i_pool in
  Pool.set_power_budget t.i_pool w;
  if w > old then kick t

(* --- Construction ----------------------------------------------------------------- *)

let create_root sess ?(policy = "fcfs") ?(decision_per_job = decision_per_job)
    ?(power_budget = infinity) ?(fs_bandwidth = infinity) ~name () =
  {
    i_name = name;
    eng = Session.engine sess;
    sess;
    i_pool =
      Pool.create ~nodes:(List.init (Session.size sess) Fun.id) ~power_budget
        ~fs_bandwidth ();
    i_policy = Policy.by_name policy;
    decision_per_job;
    i_parent = None;
    i_children = [];
    queue = [];
    running = [];
    all_jobs = [];
    pending_submissions = 0;
    sched_armed = false;
    cpu_free_at = 0.0;
    sched_cycles = 0;
    idle_cbs = [];
    jids = Flux_util.Idgen.create ~prefix:(name ^ ".") ();
    child_grant = None;
    child_job = None;
    i_nested = false;
    tracer = None;
    job_ctxs = Hashtbl.create 16;
    fail_hooks = [];
    preempted = Hashtbl.create 8;
    origins = Hashtbl.create 8;
    pending_donation = 0;
  }

(* --- Cancellation ----------------------------------------------------------------- *)

let cancel t ~jid =
  match List.find_opt (fun (j : Job.t) -> String.equal j.Job.jid jid) (jobs t) with
  | None -> false
  | Some job -> (
    match job.Job.jstate with
    | Job.Pending ->
      t.queue <- List.filter (fun j -> j != job) t.queue;
      transition t job Job.Cancelled;
      check_idle t;
      true
    | Job.Running | Job.Allocated -> (
      match job.Job.job_payload with
      | Job.Child _ | Job.Nested _ ->
        (* A running child instance owns its nodes outright; cancelling
           the wrapper under it is not supported — drain or cancel the
           child's own jobs instead. *)
        false
      | Job.Sleep _ | Job.App _ -> (
        match List.find_opt (fun (j, _) -> j == job) t.running with
        | Some (_, grant) ->
          (match job.Job.job_payload with
          | Job.App _ ->
            let api = Api.connect t.sess ~rank:0 in
            Wexec.kill api ~jobid:jid
          | Job.Sleep _ | Job.Child _ | Job.Nested _ -> ());
          t.running <- List.filter (fun (j, _) -> j != job) t.running;
          transition t job Job.Cancelled;
          Pool.release t.i_pool grant;
          kick t;
          check_idle t;
          true
        | None -> false))
    | Job.Complete | Job.Failed _ | Job.Cancelled -> false)

(* --- Metrics --------------------------------------------------------------------- *)

type stats = {
  st_completed : int;
  st_failed : int;
  st_cancelled : int;
  st_sched_cycles : int;
  st_mean_wait : float;
  st_makespan : float;
  st_node_seconds : float;
}

let stats t =
  let all = jobs t in
  let completed = List.filter (fun (j : Job.t) -> j.Job.jstate = Job.Complete) all in
  let failed =
    List.filter (fun (j : Job.t) -> match j.Job.jstate with Job.Failed _ -> true | _ -> false) all
  in
  let cancelled = List.filter (fun (j : Job.t) -> j.Job.jstate = Job.Cancelled) all in
  let waits = List.map Job.wait_time completed in
  let first_submit =
    List.fold_left (fun acc (j : Job.t) -> Float.min acc j.Job.submit_time) infinity all
  in
  let last_end =
    List.fold_left (fun acc (j : Job.t) -> Float.max acc j.Job.end_time) neg_infinity completed
  in
  {
    st_completed = List.length completed;
    st_failed = List.length failed;
    st_cancelled = List.length cancelled;
    st_sched_cycles = t.sched_cycles;
    st_mean_wait =
      (if waits = [] then 0.0
       else List.fold_left ( +. ) 0.0 waits /. float_of_int (List.length waits));
    st_makespan = (if completed = [] then 0.0 else last_end -. first_submit);
    st_node_seconds =
      List.fold_left
        (fun acc (j : Job.t) ->
          acc +. (Job.runtime j *. float_of_int (List.length j.Job.granted_nodes)))
        0.0 completed;
  }

let rec stats_recursive t =
  let mine = stats t in
  List.fold_left
    (fun acc child ->
      let s = stats_recursive child in
      {
        st_completed = acc.st_completed + s.st_completed;
        st_failed = acc.st_failed + s.st_failed;
        st_cancelled = acc.st_cancelled + s.st_cancelled;
        st_sched_cycles = acc.st_sched_cycles + s.st_sched_cycles;
        st_mean_wait =
          (* weighted by completions *)
          (let a = acc.st_mean_wait *. float_of_int acc.st_completed
           and b = s.st_mean_wait *. float_of_int s.st_completed in
           let n = acc.st_completed + s.st_completed in
           if n = 0 then 0.0 else (a +. b) /. float_of_int n);
        st_makespan = Float.max acc.st_makespan s.st_makespan;
        st_node_seconds = acc.st_node_seconds +. s.st_node_seconds;
      })
    mine t.i_children
