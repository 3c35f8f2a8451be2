module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Topic = Flux_cmb.Topic
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Api = Flux_cmb.Api
module Client = Flux_kvs.Client
module Kproto = Flux_kvs.Proto
module Sha1 = Flux_sha1.Sha1
module Tracer = Flux_trace.Tracer
module Metrics = Flux_trace.Metrics

type proc_ctx = {
  px_rank : int;
  px_local_index : int;
  px_global_index : int;
  px_ntasks : int;
  px_jobid : string;
  px_args : Json.t;
  px_api : Api.t;
  px_kvs : Client.t;
  px_printf : string -> unit;
}

exception Task_failure of string

(* A commit re-hashes every directory on its key's path, so job records
   are spread over buckets: no directory on a record's path holds more
   than about 1/16 of one parent's jobs. [Hashtbl.hash] is unseeded, so
   the layout is the same in every run. *)
let buckets = 16

let job_key jobid = Printf.sprintf "lwj.b%d.%s" (Hashtbl.hash jobid mod buckets) jobid

let programs : (string, proc_ctx -> unit) Hashtbl.t = Hashtbl.create 16

let register_program name f = Hashtbl.replace programs name f

type job_local = {
  mutable jl_pids : Proc.pid list;
  mutable jl_remaining : int;
  mutable jl_failed : int;
  mutable jl_killed : bool;
}

type master_job = {
  mj_total : int; (* expected task completions *)
  mutable mj_done : int;
  mutable mj_failed : int;
  mj_per_rank : int;
  mj_ranks : int list; (* participant ranks at launch *)
  mj_rank_done : (int, int) Hashtbl.t; (* completions attributed per rank *)
  mj_ctx : Tracer.ctx option; (* causal ctx of the launching RPC *)
}

type t = {
  b : Session.broker;
  master : bool;
  jobs : (string, job_local) Hashtbl.t;
  master_jobs : (string, master_job) Hashtbl.t;
  mutable wx_tracer : Tracer.t option;
  mutable wx_metrics : Metrics.t option;
}

let set_tracer_all ts tr = Array.iter (fun t -> t.wx_tracer <- tr) ts
let set_metrics_all ts m = Array.iter (fun t -> t.wx_metrics <- Some m) ts

(* Lifecycle events ride the tracer ctx carried out-of-band in message
   envelopes, so enabling them never perturbs payload sizes or simulated
   timing: trace on/off is bit-for-bit unobservable to the run. *)
let wemit t ~name ?parent ?fields () =
  match t.wx_tracer with
  | None -> ()
  | Some tr ->
    let ctx = Option.map (Tracer.child_ctx tr) parent in
    Tracer.emit tr ~cat:"wexec" ~name ~rank:(Session.rank t.b) ?ctx ?fields ()

let wchild t parent =
  match (t.wx_tracer, parent) with
  | Some tr, Some c -> Some (Tracer.child_ctx tr c)
  | _ -> None

let wcount t ~name n =
  match t.wx_metrics with
  | Some m -> Metrics.add m ~name ~rank:(Session.rank t.b) n
  | None -> ()

(* Report local completions to the root (Pass-chains up the tree). The
   reporting rank rides along so the master can attribute completions
   per rank — the bookkeeping that lets a dead rank's unreported tasks
   be accounted as failures exactly once. *)
let report_done t ~jobid ~count ~failed =
  Session.request_from_module t.b ~topic:"wexec.done"
    (Json.obj
       [
         ("jobid", Json.string jobid);
         ("count", Json.int count);
         ("failed", Json.int failed);
         ("rank", Json.int (Session.rank t.b));
       ])
    ~reply:(fun _ -> ())

(* When the reporting rank is known, its contribution is clamped to the
   per-rank task count: a completion report racing the same rank's
   death-accounting (either order) can then never double-count, so the
   job completes exactly once with consistent totals. *)
let master_account t ~jobid ?rank ~count ~failed () =
  match Hashtbl.find_opt t.master_jobs jobid with
  | None -> () (* unknown job: stale completion after kill cleanup *)
  | Some mj ->
    let count, failed =
      match rank with
      | None -> (count, failed)
      | Some r ->
        let prior = Option.value ~default:0 (Hashtbl.find_opt mj.mj_rank_done r) in
        let take = min count (mj.mj_per_rank - prior) in
        Hashtbl.replace mj.mj_rank_done r (prior + take);
        (take, min failed take)
    in
    mj.mj_done <- mj.mj_done + count;
    mj.mj_failed <- mj.mj_failed + failed;
    if mj.mj_done >= mj.mj_total then begin
      Hashtbl.remove t.master_jobs jobid;
      wcount t ~name:"wexec.jobs.completed" 1;
      let ctx = wchild t mj.mj_ctx in
      (match t.wx_tracer with
      | Some tr ->
        Tracer.emit tr ~cat:"wexec" ~name:"complete" ~rank:(Session.rank t.b) ?ctx
          ~fields:
            [
              ("jobid", Json.string jobid);
              ("ntasks", Json.int mj.mj_total);
              ("failed", Json.int mj.mj_failed);
            ]
          ()
      | None -> ());
      Session.publish t.b ?trace_ctx:ctx ~topic:("wexec.complete." ^ jobid)
        (Json.obj
           [
             ("jobid", Json.string jobid);
             ("ntasks", Json.int mj.mj_total);
             ("failed", Json.int mj.mj_failed);
           ])
    end

let task_finished t ~jobid ~failed =
  match Hashtbl.find_opt t.jobs jobid with
  | None -> ()
  | Some jl ->
    jl.jl_remaining <- jl.jl_remaining - 1;
    wcount t ~name:(if failed then "wexec.tasks.failed" else "wexec.tasks.done") 1;
    if failed then jl.jl_failed <- jl.jl_failed + 1;
    if jl.jl_remaining = 0 then begin
      let count = List.length jl.jl_pids in
      let failed_n = jl.jl_failed in
      Hashtbl.remove t.jobs jobid;
      if t.master then
        master_account t ~jobid ~rank:(Session.rank t.b) ~count ~failed:failed_n ()
      else report_done t ~jobid ~count ~failed:failed_n
    end

let start_local_tasks t ~jobid ~prog ~args ~per_rank ~rank_index ~ntasks =
  let eng = Session.b_engine t.b in
  let sess = Session.session_of t.b in
  let rank = Session.rank t.b in
  match Hashtbl.find_opt programs prog with
  | None ->
    (* Unknown program: report all local tasks as failed. *)
    if t.master then
      master_account t ~jobid ~rank:(Session.rank t.b) ~count:per_rank ~failed:per_rank ()
    else report_done t ~jobid ~count:per_rank ~failed:per_rank
  | Some body ->
    let jl = { jl_pids = []; jl_remaining = per_rank; jl_failed = 0; jl_killed = false } in
    Hashtbl.replace t.jobs jobid jl;
    for i = 0 to per_rank - 1 do
      let stdout_buf = Buffer.create 64 in
      let ctx =
        {
          px_rank = rank;
          px_local_index = i;
          px_global_index = (rank_index * per_rank) + i;
          px_ntasks = ntasks;
          px_jobid = jobid;
          px_args = args;
          px_api = Api.connect sess ~rank;
          px_kvs = Client.connect sess ~rank;
          px_printf =
            (fun line ->
              Buffer.add_string stdout_buf line;
              Buffer.add_char stdout_buf '\n');
        }
      in
      let pid =
        Proc.spawn eng (fun () ->
            let failed =
              try
                body ctx;
                false
              with
              | Task_failure _ -> true
              | Proc.Stopped -> true
            in
            (* Capture stdout and exit status in the KVS, as the paper
               describes for wexec. *)
            let base = Printf.sprintf "%s.%d-%d" (job_key jobid) rank i in
            ignore
              (Client.put ctx.px_kvs ~key:(base ^ ".stdout")
                 (Json.string (Buffer.contents stdout_buf))
                : (unit, string) result);
            ignore
              (Client.put ctx.px_kvs ~key:(base ^ ".exit")
                 (Json.int (if failed then 1 else 0))
                : (unit, string) result);
            ignore (Client.commit ctx.px_kvs : (int, string) result);
            task_finished t ~jobid ~failed)
      in
      jl.jl_pids <- pid :: jl.jl_pids
    done

let handle_exec t (ev : Message.t) =
  let payload = ev.Message.payload in
  let jobid = Json.to_string_v (Json.member "jobid" payload) in
  let prog = Json.to_string_v (Json.member "prog" payload) in
  let args = Json.member "args" payload in
  let per_rank = Json.to_int (Json.member "per_rank" payload) in
  let ranks = List.map Json.to_int (Json.to_list (Json.member "ranks" payload)) in
  let rank = Session.rank t.b in
  match List.find_index (fun r -> r = rank) ranks with
  | Some rank_index ->
    wemit t ~name:"start" ?parent:ev.Message.trace
      ~fields:[ ("jobid", Json.string jobid); ("ntasks", Json.int per_rank) ]
      ();
    wcount t ~name:"wexec.tasks.started" per_rank;
    start_local_tasks t ~jobid ~prog ~args ~per_rank ~rank_index
      ~ntasks:(per_rank * List.length ranks)
  | None -> ()

(* The master has closed this job: any task still running locally is a
   straggler whose work can no longer be acknowledged. The canonical
   case is a revived broker replaying the event backlog it missed while
   down — the replayed [wexec.exec] spawns tasks for a job the master
   death-accounted long ago, and without this teardown they would
   execute side effects AFTER the job's completion was acked (the
   requeued copy having run elsewhere). The [wexec.complete] event sits
   later in the same backlog, so replay kills the zombies in the same
   engine step that spawned them, before their first suspension point
   resumes. Silent on purpose: the accounting is already final. *)
let handle_complete_event t (ev : Message.t) =
  let jobid = Json.to_string_v (Json.member "jobid" ev.Message.payload) in
  match Hashtbl.find_opt t.jobs jobid with
  | None -> ()
  | Some jl ->
    jl.jl_killed <- true;
    let eng = Session.b_engine t.b in
    List.iter (fun pid -> Proc.kill eng pid) jl.jl_pids;
    if jl.jl_remaining > 0 then wcount t ~name:"wexec.tasks.stale_killed" jl.jl_remaining;
    Hashtbl.remove t.jobs jobid

let handle_kill t (ev : Message.t) =
  let jobid = Json.to_string_v (Json.member "jobid" ev.Message.payload) in
  match Hashtbl.find_opt t.jobs jobid with
  | None -> ()
  | Some jl ->
    if not jl.jl_killed then begin
      jl.jl_killed <- true;
      let eng = Session.b_engine t.b in
      (* Tasks raise Stopped at their next suspension point; account for
         them here rather than waiting for the unwinding, since a killed
         task performs no further KVS bookkeeping. *)
      List.iter (fun pid -> Proc.kill eng pid) jl.jl_pids;
      wcount t ~name:"wexec.tasks.killed" jl.jl_remaining;
      let count = List.length jl.jl_pids in
      let failed = jl.jl_failed + jl.jl_remaining in
      Hashtbl.remove t.jobs jobid;
      if t.master then master_account t ~jobid ~rank:(Session.rank t.b) ~count ~failed ()
      else report_done t ~jobid ~count ~failed
    end

(* A rank was marked down. At the master: account the dead rank's
   not-yet-reported tasks of every job it participates in as failures —
   without this, [run] blocks forever on a completion total that can no
   longer be reached. At the dead rank itself: destroy local tasks
   silently (its broker is gone; nothing can be reported), so a later
   revival cannot resume them and double-report. *)
let on_rank_down t r =
  let self = Session.rank t.b in
  if r = self then begin
    let eng = Session.b_engine t.b in
    Hashtbl.iter
      (fun _ jl ->
        jl.jl_killed <- true;
        List.iter (fun pid -> Proc.kill eng pid) jl.jl_pids)
      t.jobs;
    Hashtbl.reset t.jobs
  end
  else if t.master && not (Session.is_down (Session.session_of t.b) self) then begin
    let affected =
      Hashtbl.fold
        (fun jobid mj acc -> if List.mem r mj.mj_ranks then (jobid, mj) :: acc else acc)
        t.master_jobs []
    in
    List.iter
      (fun (jobid, mj) ->
        let prior = Option.value ~default:0 (Hashtbl.find_opt mj.mj_rank_done r) in
        let missing = mj.mj_per_rank - prior in
        if missing > 0 then begin
          wemit t ~name:"death_account" ?parent:mj.mj_ctx
            ~fields:
              [
                ("jobid", Json.string jobid);
                ("rank", Json.int r);
                ("missing", Json.int missing);
              ]
            ();
          wcount t ~name:"wexec.tasks.death_accounted" missing;
          master_account t ~jobid ~rank:r ~count:missing ~failed:missing ()
        end)
      affected
  end

let module_of t =
  {
    Session.mod_name = "wexec";
    on_request =
      (fun (req : Message.t) ->
        match Topic.method_ req.Message.topic with
        | "run" ->
          if t.master then begin
            let p = req.Message.payload in
            let jobid = Json.to_string_v (Json.member "jobid" p) in
            let per_rank = Json.to_int (Json.member "per_rank" p) in
            let ranks = List.map Json.to_int (Json.to_list (Json.member "ranks" p)) in
            let nranks = List.length ranks in
            if Hashtbl.mem t.master_jobs jobid then begin
              Session.respond_error t.b req (Printf.sprintf "job %S already running" jobid);
              Session.Consumed
            end
            else begin
              Hashtbl.replace t.master_jobs jobid
                {
                  mj_total = per_rank * nranks;
                  mj_done = 0;
                  mj_failed = 0;
                  mj_per_rank = per_rank;
                  mj_ranks = ranks;
                  mj_rank_done = Hashtbl.create 8;
                  mj_ctx = req.Message.trace;
                };
              wcount t ~name:"wexec.jobs.launched" 1;
              (* Broadcast the launch over the event plane, carrying the
                 launching RPC's causal ctx so per-rank starts chain off
                 the job's sched.submit -> sched.match spans. *)
              Session.publish t.b ?trace_ctx:req.Message.trace
                ~topic:("wexec.exec." ^ jobid) p;
              Session.respond t.b req Json.null;
              (* Ranks already dead at launch never start their tasks:
                 account them as failed now so the completion total is
                 reachable. *)
              let sess = Session.session_of t.b in
              List.iter
                (fun r ->
                  if Session.is_down sess r then
                    master_account t ~jobid ~rank:r ~count:per_rank ~failed:per_rank ())
                ranks;
              Session.Consumed
            end
          end
          else Session.Pass
        | "done" ->
          if t.master then begin
            let p = req.Message.payload in
            let rank =
              match Json.member_opt "rank" p with Some r -> Some (Json.to_int r) | None -> None
            in
            master_account t
              ~jobid:(Json.to_string_v (Json.member "jobid" p))
              ?rank
              ~count:(Json.to_int (Json.member "count" p))
              ~failed:(Json.to_int (Json.member "failed" p))
              ();
            Session.respond t.b req Json.null;
            Session.Consumed
          end
          else Session.Pass
        | m ->
          Session.respond_error t.b req (Printf.sprintf "wexec: unknown method %S" m);
          Session.Consumed);
  }

let load sess () =
  let instances =
    Array.init (Session.size sess) (fun r ->
        {
          b = Session.broker sess r;
          master = r = 0;
          jobs = Hashtbl.create 8;
          master_jobs = Hashtbl.create 8;
          wx_tracer = None;
          wx_metrics = None;
        })
  in
  Session.load_module sess (fun b -> module_of instances.(Session.rank b));
  Array.iter
    (fun t ->
      Session.subscribe t.b ~prefix:"wexec.exec" (handle_exec t);
      Session.subscribe t.b ~prefix:"wexec.kill" (handle_kill t);
      Session.subscribe t.b ~prefix:"wexec.complete" (handle_complete_event t))
    instances;
  (* Down-node detection rides the session's liveness transitions (fed
     by {!Live} heartbeats or injected by a harness): the master
     accounts a dead rank's unfinished tasks as failures so completion
     events still fire, and a dead rank destroys its local tasks. *)
  Session.add_liveness_watch sess (fun r up ->
      if not up then Array.iter (fun t -> on_rank_down t r) instances);
  instances

type completion = { c_jobid : string; c_ntasks : int; c_failed : int }

let run api ~jobid ~prog ?(args = Json.null) ?(per_rank = 1) ?trace_ctx ~ranks () =
  if not (Topic.is_valid ("wexec.complete." ^ jobid)) then
    Error (Printf.sprintf "invalid job id %S" jobid)
  else begin
    let payload =
      Json.obj
        [
          ("jobid", Json.string jobid);
          ("prog", Json.string prog);
          ("args", args);
          ("per_rank", Json.int per_rank);
          ("ranks", Json.list (List.map Json.int ranks));
        ]
    in
    (* Subscribe to the completion event before launching to avoid the
       obvious race on very short jobs. *)
    let eng = Session.engine (Api.session api) in
    let done_iv = Flux_sim.Ivar.create () in
    Api.subscribe_once api ~topic:("wexec.complete." ^ jobid) (fun ~topic:_ p ->
        Flux_sim.Ivar.fill eng done_iv p);
    match Api.rpc api ?trace_ctx ~topic:"wexec.run" payload with
    | Error e -> Error e
    | Ok _ ->
      let p = Proc.await done_iv in
      Ok
        {
          c_jobid = jobid;
          c_ntasks = Json.to_int (Json.member "ntasks" p);
          c_failed = Json.to_int (Json.member "failed" p);
        }
  end

let kill api ~jobid =
  Api.publish api ~topic:("wexec.kill." ^ jobid) (Json.obj [ ("jobid", Json.string jobid) ])

(* ------------------------------------------------------------------ *)
(* Checkpoint manifests                                                *)

type manifest = { m_job : string; m_epoch : int; m_version : int; m_root : string }

let manifest_key jobid epoch = Printf.sprintf "ckpt.%s.e%d" jobid epoch
let latest_key jobid = Printf.sprintf "ckpt.%s.latest" jobid

let manifest_to_json m =
  Json.obj
    [
      ("job", Json.string m.m_job);
      ("epoch", Json.int m.m_epoch);
      ("version", Json.int m.m_version);
      ("root", Json.string m.m_root);
    ]

let manifest_of_json j =
  match
    {
      m_job = Json.to_string_v (Json.member "job" j);
      m_epoch = Json.to_int (Json.member "epoch" j);
      m_version = Json.to_int (Json.member "version" j);
      m_root = Json.to_string_v (Json.member "root" j);
    }
  with
  | m -> Some m
  | exception Json.Type_error _ -> None

let checkpoint ?timeout ctx ~epoch =
  (* The fence name doubles as the manifest key, so each (job, epoch)
     pair fences under a fresh name — the freshness rule fences require.
     Synchronize first; then exactly one task records the fence's root
     as the manifest. Because tasks only mutate the store through the
     checkpoint fences, the root read just after the fence IS the fence
     root: the manifest names a cut every task has agreed on. *)
  let name = manifest_key ctx.px_jobid epoch in
  match Client.fence ?timeout ctx.px_kvs ~name ~nprocs:ctx.px_ntasks with
  | Error e -> Error e
  | Ok v when ctx.px_global_index <> 0 -> Ok v
  | Ok _ -> (
    match Client.get_root ctx.px_kvs with
    | Error e -> Error e
    | Ok ri ->
      let m =
        {
          m_job = ctx.px_jobid;
          m_epoch = epoch;
          m_version = ri.Kproto.ri_version;
          m_root = Sha1.to_hex ri.Kproto.ri_root;
        }
      in
      let payload = manifest_to_json m in
      let ( let* ) r f = match r with Ok () -> f () | Error e -> Error e in
      let* () = Client.put ctx.px_kvs ~key:name payload in
      let* () = Client.put ctx.px_kvs ~key:(latest_key ctx.px_jobid) payload in
      Client.commit ctx.px_kvs)

let newest_manifest kvs ~jobid ~max_epoch =
  (* Walk candidate epochs newest-first, verifying each: the [latest]
     pointer may be torn (rank 0 died between the epoch-key commit and
     the next fence), so trust only a manifest that parses, names its
     own epoch, carries a well-formed root hash, and does not claim a
     version from the future of the store being consulted. *)
  let current_version = match Client.get_version kvs with Ok v -> v | Error _ -> max_int in
  let verified e =
    match Client.get kvs ~key:(manifest_key jobid e) with
    | Error _ -> None
    | Ok j -> (
      match manifest_of_json j with
      | None -> None
      | Some m ->
        if
          m.m_epoch = e
          && m.m_version <= current_version
          && (match Sha1.of_hex m.m_root with
             | (_ : Sha1.digest) -> true
             | exception Invalid_argument _ -> false)
        then Some m
        else None)
  in
  let rec scan e = if e < 0 then None else match verified e with Some m -> Some m | None -> scan (e - 1) in
  scan max_epoch
