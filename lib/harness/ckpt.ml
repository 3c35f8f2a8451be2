(* Checkpoint/requeue kill-schedule harness: jobs that checkpoint
   through the KVS (fence + manifest) are killed at seeded points —
   a worker node mid-job, the KVS master mid-snapshot, a worker in the
   window between a committed checkpoint and the next fence — and must
   come back with zero acked-write loss, restart-equivalent reads, and
   monotonically advancing recovery points. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Rng = Flux_util.Rng
module Stats = Flux_util.Stats
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Snapshot = Flux_kvs.Snapshot
module Wexec = Flux_modules.Wexec
module Checkpoint = Flux_core.Checkpoint
module Metrics = Flux_trace.Metrics
module Sha1 = Flux_sha1.Sha1

type kill_kind =
  | Node_mid_job  (** a worker rank dies while its tasks run *)
  | Master_mid_snapshot  (** the acting KVS master dies during a live capture *)
  | Between_ckpt_and_fence  (** a worker dies after a manifest commits, before the next fence *)

type config = {
  seed : int;
  size : int;
  fanout : int;
  kill : kill_kind option;  (** [None]: fault-free baseline (bench) *)
  manifests : bool;  (** [false]: plain fences, no manifests (bench baseline) *)
  workers : int list;
  per_rank : int;
  epochs : int;
  keys_per_epoch : int;
}

let value_bytes = 96
let ckpt_timeout = 4.0
let revive_after = 1.0

(* Acked state must survive master loss: replicate fresh interior
   objects with each setroot so a successor rebuilds from survivors. *)
let replicated_kvs = { Kvs.default_config with Kvs.setroot_delta_max = max_int }

(* Rank 0 is the wexec job master (no failover) and the driver runs on
   rank [size-1], so schedules never kill either; [size-2] serves reads
   and snapshot captures. Workers live strictly between. *)
let default =
  {
    seed = 1;
    size = 13;
    fanout = 2;
    kill = Some Node_mid_job;
    manifests = true;
    workers = [ 2; 3; 4; 5 ];
    per_rank = 1;
    epochs = 4;
    keys_per_epoch = 2;
  }

type report = {
  r_kind : kill_kind option;
  r_kills : int;
  r_revives : int;
  r_attempts : int;
  r_requeues : int;
  r_ckpt_ok : int;
  r_ckpt_failed : int;
  r_acked_epoch : int;
  r_resume_epochs : int list;  (** manifest epochs resumed from, oldest first *)
  r_keys_checked : int;
  r_snapshot_objects : int;
  r_snapshot_bytes : int;
  r_recovery_time : float;  (** first kill to job completion; 0 when fault-free *)
  r_ckpt_mean : float;  (** mean checkpoint (or plain-fence) latency *)
  r_ckpt_p50 : float;
  r_violations : string list;
  (* Determinism fingerprint material. *)
  r_final_version : int;
  r_final_root : string;
  r_final_clock : float;
  r_sim_events : int;
}

type state = {
  cfg : config;
  eng : Engine.t;
  sess : Session.t;
  kvs : Kvs.t array;
  rng : Rng.t;
  metrics : Metrics.t;
  h : History.t; (* keys covered by a committed checkpoint manifest are acked *)
  ckpt_lat : Stats.t;
  mutable launch_ok : bool;  (** gates the driver (master-failover pre-phase) *)
  mutable started_tasks : int;
  mutable capturing : bool;
  mutable fencing : int;  (** checkpoint fences currently in flight *)
  mutable acked_epoch : int;
  mutable resume_epochs : int list;  (** reversed *)
  mutable ckpt_ok : int;
  mutable ckpt_failed : int;
  mutable checked : int;
  mutable completed_at : float;
  mutable outcome : Checkpoint.outcome option;
}

let jobid = "ckjob"
let prog_name = "ckpt.worker"
let capture_rank st = st.cfg.size - 2
let driver_rank st = st.cfg.size - 1

let key_for ~g ~e ~i = Printf.sprintf "ck.g%d.e%d.i%d" g e i

let value_for ~g ~e ~i =
  Json.obj
    [
      ("g", Json.int g);
      ("e", Json.int e);
      ("i", Json.int i);
      ("pad", Json.string (String.make value_bytes 'z'));
    ]

(* A committed manifest at epoch [e] covers every task's writes for all
   epochs of the attempt that fenced it; earlier epochs were promoted by
   the attempt that acked them (possibly with a different task count). *)
let promote st ~ntasks ~from_e ~to_e =
  for e = from_e to to_e do
    for g = 0 to ntasks - 1 do
      for i = 0 to st.cfg.keys_per_epoch - 1 do
        History.ack st.h (key_for ~g ~e ~i) (value_for ~g ~e ~i)
      done
    done
  done

let acting_kvs_master st =
  let m = ref (-1) in
  Array.iteri
    (fun r t -> if Kvs.is_master t && not (Session.is_down st.sess r) then m := r)
    st.kvs;
  !m

(* --- The checkpointing program ------------------------------------------- *)

let worker st (ctx : Wexec.proc_ctx) =
  st.started_tasks <- st.started_tasks + 1;
  let start_e, resumed =
    match Json.member_opt "resume" ctx.px_args with
    | None -> (1, None)
    | Some mj -> (
      match Wexec.manifest_of_json mj with
      | Some m -> (m.Wexec.m_epoch + 1, Some m)
      | None -> (1, None))
  in
  if ctx.px_global_index = 0 then begin
    (match resumed with
    | None -> ()
    | Some m -> st.resume_epochs <- m.Wexec.m_epoch :: st.resume_epochs);
    (* Restart-equivalence at the task level: the state the manifest
       pins must be readable before the attempt produces anything new. *)
    match resumed with
    | None -> ()
    | Some m ->
      for e = 1 to m.Wexec.m_epoch do
        let key = key_for ~g:0 ~e ~i:0 in
        let r = Client.get ctx.px_kvs ~key in
        if Result.is_ok r then st.checked <- st.checked + 1;
        History.check st.h ~label:"resume" ~key ~expect:(value_for ~g:0 ~e ~i:0) r
      done
  end;
  for e = start_e to st.cfg.epochs do
    for i = 0 to st.cfg.keys_per_epoch - 1 do
      let key = key_for ~g:ctx.px_global_index ~e ~i in
      match Client.put ctx.px_kvs ~key (value_for ~g:ctx.px_global_index ~e ~i) with
      | Ok () -> ()
      | Error er -> raise (Wexec.Task_failure er)
    done;
    let t0 = Engine.now st.eng in
    st.fencing <- st.fencing + 1;
    let r =
      if st.cfg.manifests then Wexec.checkpoint ~timeout:ckpt_timeout ctx ~epoch:e
      else
        Client.fence ~timeout:ckpt_timeout ctx.px_kvs
          ~name:(Wexec.manifest_key ctx.px_jobid e)
          ~nprocs:ctx.px_ntasks
    in
    st.fencing <- st.fencing - 1;
    match r with
    | Ok _ ->
      st.ckpt_ok <- st.ckpt_ok + 1;
      Stats.add st.ckpt_lat (Engine.now st.eng -. t0);
      if ctx.px_global_index = 0 && st.cfg.manifests then begin
        (* Task 0's Ok means the manifest itself committed: only now is
           the epoch a recovery point whose keys are acked. *)
        if e > st.acked_epoch then st.acked_epoch <- e;
        promote st ~ntasks:ctx.px_ntasks ~from_e:start_e ~to_e:e
      end
    | Error er ->
      st.ckpt_failed <- st.ckpt_failed + 1;
      Client.abort ctx.px_kvs;
      raise (Wexec.Task_failure er)
  done

(* --- Kill schedules ------------------------------------------------------ *)

let protected st r = r = 0 || r = driver_rank st || r = capture_rank st

let seeded_worker st rng =
  let ws = st.cfg.workers in
  List.nth ws (Rng.int rng (List.length ws))

let node_assassin st =
  let rng = Rng.split st.rng in
  (* Strike while a checkpoint fence is demonstrably in flight — the
     worst window for a node death: the collective can no longer
     complete and the job must be killed and requeued. The whole job
     runs in a few simulated milliseconds, so poll finely from the
     start. *)
  while st.fencing = 0 && Engine.now st.eng < 60.0 do
    Proc.sleep 0.0002
  done;
  Proc.sleep (Rng.float rng 0.0005);
  let v = seeded_worker st rng in
  if not (protected st v) then History.outage st.h v ~for_:revive_after

let window_assassin st =
  let rng = Rng.split st.rng in
  let target_epoch = 1 + (st.cfg.seed mod Int.max 1 (st.cfg.epochs - 1)) in
  while st.acked_epoch < target_epoch && Engine.now st.eng < 60.0 do
    Proc.sleep 0.0005
  done;
  (* Strike in the gap between the committed manifest and the next
     fence: the newest recovery point must already be durable. *)
  let v = seeded_worker st rng in
  if not (protected st v) then History.outage st.h v ~for_:revive_after

(* Move KVS mastership off rank 0 (the fixed wexec master) before the
   job launches, so the mid-snapshot master kill never has to touch a
   protected rank. *)
let master_prephase st =
  (* Let the session and modules finish coming up before deposing the
     initial master — a kill at t=0 lands before anyone is watching
     liveness and no takeover ever starts. *)
  Proc.sleep 0.05;
  History.kill st.h 0;
  while acting_kvs_master st < 0 && Engine.now st.eng < 60.0 do
    Proc.sleep 0.005
  done;
  Proc.sleep revive_after;
  History.revive st.h 0;
  Proc.sleep 0.05;
  st.launch_ok <- true

let snapshotter st =
  while (st.acked_epoch < 1 || st.started_tasks = 0) && Engine.now st.eng < 60.0 do
    Proc.sleep 0.001
  done;
  st.capturing <- true;
  (* Hold the window open: the whole capture can finish inside the
     assassin's poll gap, so give it a beat to depose the master first —
     the capture then has to ride the takeover. *)
  Proc.sleep 0.002;
  (match Snapshot.capture st.sess ~rank:(capture_rank st) with
  | Ok snap -> (
    match Snapshot.verify snap with
    | Ok () -> ()
    | Error e ->
      History.violate st.h "live capture did not verify: %s" (Snapshot.error_to_string e))
  | Error e -> History.violate st.h "live capture failed: %s" e);
  st.capturing <- false

let master_assassin st =
  let rng = Rng.split st.rng in
  while (not st.capturing) && Engine.now st.eng < 60.0 do
    Proc.sleep 0.0002
  done;
  Proc.sleep (Rng.float rng 0.001);
  let m = acting_kvs_master st in
  if m >= 0 && (not (protected st m)) && st.capturing then
    History.outage st.h m ~for_:revive_after

(* --- Driver and finalization --------------------------------------------- *)

let driver st =
  while (not st.launch_ok) && Engine.now st.eng < 60.0 do
    Proc.sleep 0.01
  done;
  let rank = driver_rank st in
  let api = Api.connect st.sess ~rank in
  let kvs = Client.connect st.sess ~rank in
  match
    Checkpoint.run_resilient api ~kvs ~metrics:st.metrics ~max_epoch:st.cfg.epochs ~jobid
      ~prog:prog_name ~per_rank:st.cfg.per_rank ~ranks:st.cfg.workers ()
  with
  | Ok o ->
    st.outcome <- Some o;
    st.completed_at <- Engine.now st.eng;
    if o.Checkpoint.o_completion.Wexec.c_failed <> 0 then
      History.violate st.h "job ended with %d failed tasks after %d attempts"
        o.Checkpoint.o_completion.Wexec.c_failed o.Checkpoint.o_attempts
  | Error e -> History.violate st.h "run_resilient: %s" e

(* Serialize the final store, damage-check the round-trip, then rebuild
   a brand-new session from the bytes and require every acked key to
   read back identically — restart equivalence. *)
let restore_equivalence st snap =
  let encoded = Snapshot.encode snap in
  (match Snapshot.decode encoded with
  | Error e -> History.violate st.h "decode(encode) failed: %s" (Snapshot.error_to_string e)
  | Ok snap2 ->
    if not (String.equal encoded (Snapshot.encode snap2)) then
      History.violate st.h "decode(encode) is not a fixed point";
    if not (Sha1.equal snap.Snapshot.s_root snap2.Snapshot.s_root) then
      History.violate st.h "decode(encode) changed the root");
  let eng2 = Engine.create () in
  let sess2 = Session.create eng2 ~fanout:2 ~size:4 () in
  let kvs2 = Kvs.load sess2 ~config:replicated_kvs () in
  match Kvs.restore kvs2.(0) snap with
  | Error e -> History.violate st.h "restore into fresh session failed: %s" e
  | Ok () ->
    if Kvs.version kvs2.(0) <> snap.Snapshot.s_version then
      History.violate st.h "restored version %d <> snapshot version %d" (Kvs.version kvs2.(0))
        snap.Snapshot.s_version;
    ignore
      (Proc.spawn eng2 (fun () ->
           let c = Client.connect sess2 ~rank:3 in
           (* The restored root's setroot must reach this slave before
              its reads mean anything. *)
           (match Client.wait_version c snap.Snapshot.s_version with
           | Ok () -> ()
           | Error e -> History.violate st.h "restored: wait_version: %s" e);
           st.checked <-
             st.checked + History.verify st.h ~label:"restored" (fun key -> Client.get c ~key))
        : Proc.pid);
    Engine.run eng2

let finalize st =
  Engine.run st.eng;
  List.iter (History.revive st.h) (History.dead st.h);
  Engine.run st.eng;
  (match st.outcome with
  | Some _ -> ()
  | None -> History.violate st.h "job never completed");
  (* Monotonic recovery: every requeue resumed at or past its
     predecessor's epoch. *)
  let resumes = List.rev st.resume_epochs in
  ignore
    (List.fold_left
       (fun prev e ->
         if e < prev then History.violate st.h "recovery regressed: resumed e%d after e%d" e prev;
         e)
       0 resumes
      : int);
  (* Read every acked key back through an uninvolved rank. *)
  ignore
    (Proc.spawn st.eng (fun () ->
         let c = Client.connect st.sess ~rank:(capture_rank st) in
         st.checked <- st.checked + History.verify st.h ~label:"final" (fun key -> Client.get c ~key))
      : Proc.pid);
  Engine.run st.eng;
  let snap_ref = ref None in
  ignore
    (Proc.spawn st.eng (fun () ->
         match Snapshot.capture st.sess ~rank:(capture_rank st) with
         | Ok s -> snap_ref := Some s
         | Error e -> History.violate st.h "final capture failed: %s" e)
      : Proc.pid);
  Engine.run st.eng;
  (match !snap_ref with Some s -> restore_equivalence st s | None -> ());
  !snap_ref

let validate cfg =
  Harness.require
    [
      (cfg.fanout >= 2, "fanout must be >= 2");
      (cfg.workers <> [], "no worker ranks (size must be >= 6)");
      ( List.for_all (fun r -> r > 0 && r < cfg.size - 2) cfg.workers,
        "workers must avoid ranks 0, size-2 and size-1" );
      (cfg.per_rank >= 1, "per_rank must be >= 1");
      (cfg.epochs >= 1, "epochs must be >= 1");
      (cfg.keys_per_epoch >= 1, "keys_per_epoch must be >= 1");
      (cfg.seed >= 1, "seed must be >= 1");
    ]

let run cfg =
  Result.iter_error (fun e -> invalid_arg ("Ckpt.run: " ^ e)) (validate cfg);
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout:cfg.fanout ~size:cfg.size () in
  let kvs = Kvs.load sess ~config:replicated_kvs () in
  let metrics = Metrics.create () in
  Kvs.set_metrics_all kvs metrics;
  ignore (Wexec.load sess () : Wexec.t array);
  let st =
    {
      cfg;
      eng;
      sess;
      kvs;
      rng = Rng.create cfg.seed;
      metrics;
      h = History.create sess;
      ckpt_lat = Stats.create ();
      launch_ok = cfg.kill <> Some Master_mid_snapshot;
      started_tasks = 0;
      capturing = false;
      fencing = 0;
      acked_epoch = 0;
      resume_epochs = [];
      ckpt_ok = 0;
      ckpt_failed = 0;
      checked = 0;
      completed_at = 0.0;
      outcome = None;
    }
  in
  Wexec.register_program prog_name (worker st);
  (match cfg.kill with
  | None -> ()
  | Some Node_mid_job -> ignore (Proc.spawn eng (fun () -> node_assassin st) : Proc.pid)
  | Some Between_ckpt_and_fence ->
    ignore (Proc.spawn eng (fun () -> window_assassin st) : Proc.pid)
  | Some Master_mid_snapshot ->
    ignore (Proc.spawn eng (fun () -> master_prephase st) : Proc.pid);
    ignore (Proc.spawn eng (fun () -> snapshotter st) : Proc.pid);
    ignore (Proc.spawn eng (fun () -> master_assassin st) : Proc.pid));
  ignore (Proc.spawn eng (fun () -> driver st) : Proc.pid);
  Engine.run eng;
  let snap = finalize st in
  let attempts, requeues =
    match st.outcome with
    | Some o ->
      (o.Checkpoint.o_attempts, Metrics.counter_total st.metrics ~name:"ckpt.requeue")
    | None -> (0, Metrics.counter_total st.metrics ~name:"ckpt.requeue")
  in
  let final_version, final_root =
    match acting_kvs_master st with
    | -1 -> (-1, "")
    | m -> (Kvs.version st.kvs.(m), Sha1.to_hex (Kvs.root_ref st.kvs.(m)))
  in
  {
    r_kind = cfg.kill;
    r_kills = History.kills st.h;
    r_revives = History.revives st.h;
    r_attempts = attempts;
    r_requeues = requeues;
    r_ckpt_ok = st.ckpt_ok;
    r_ckpt_failed = st.ckpt_failed;
    r_acked_epoch = st.acked_epoch;
    r_resume_epochs = List.rev st.resume_epochs;
    r_keys_checked = st.checked;
    r_snapshot_objects =
      (match snap with Some s -> List.length s.Snapshot.s_objects | None -> 0);
    r_snapshot_bytes = (match snap with Some s -> Snapshot.objects_bytes s | None -> 0);
    r_recovery_time =
      (match History.first_kill st.h with
      | Some t when st.completed_at > t -> st.completed_at -. t
      | _ -> 0.0);
    r_ckpt_mean = (if Stats.count st.ckpt_lat = 0 then 0.0 else Stats.mean st.ckpt_lat);
    r_ckpt_p50 =
      (if Stats.count st.ckpt_lat = 0 then 0.0 else Stats.percentile st.ckpt_lat 0.50);
    r_violations = History.violations st.h;
    r_final_version = final_version;
    r_final_root = final_root;
    r_final_clock = Engine.now eng;
    r_sim_events = Engine.events_executed eng;
  }

let kills =
  [
    ("node", Some Node_mid_job);
    ("master", Some Master_mid_snapshot);
    ("window", Some Between_ckpt_and_fence);
    ("none", None);
  ]

let row (r : report) =
  [
    ("kill", Json.string (fst (List.find (fun (_, k) -> k = r.r_kind) kills)));
    ("kills", Json.int r.r_kills);
    ("revives", Json.int r.r_revives);
    ("attempts", Json.int r.r_attempts);
    ("requeues", Json.int r.r_requeues);
    ("ckpt_ok", Json.int r.r_ckpt_ok);
    ("ckpt_failed", Json.int r.r_ckpt_failed);
    ("acked_epoch", Json.int r.r_acked_epoch);
    ("resume_epochs", Json.list (List.map Json.int r.r_resume_epochs));
    ("resume_from", Json.int (match List.rev r.r_resume_epochs with e :: _ -> e | [] -> 0));
    ("keys_checked", Json.int r.r_keys_checked);
    ("snapshot_objects", Json.int r.r_snapshot_objects);
    ("snapshot_bytes", Json.int r.r_snapshot_bytes);
    ("recovery_time", Json.float r.r_recovery_time);
    ("ckpt_mean", Json.float r.r_ckpt_mean);
    ("ckpt_p50", Json.float r.r_ckpt_p50);
    ("final_version", Json.int r.r_final_version);
    ("final_root", Json.string r.r_final_root);
    ("final_clock", Json.float r.r_final_clock);
    ("sim_events", Json.int r.r_sim_events);
    ("violations", Json.int (List.length r.r_violations));
  ]

let harness =
  let sweep ~fast =
    (* Curve 1: fault-free runs, manifests on vs off. The manifest put +
       commit after each checkpoint fence is the whole overhead of making
       the fence a durable recovery point. *)
    let epochs = if fast then 4 else 8 in
    let base = { default with kill = None; epochs } in
    let plain = run { base with manifests = false } in
    let durable = run { base with manifests = true } in
    let overhead_pct =
      if plain.r_ckpt_mean > 0.0 then 100.0 *. ((durable.r_ckpt_mean /. plain.r_ckpt_mean) -. 1.0)
      else 0.0
    in
    let plain_row = row plain and durable_row = row durable in
    Harness.print_table
      (List.map
         (fun (label, r) ->
           ("fences", Json.string label) :: Harness.pick [ "ckpt_mean"; "ckpt_p50" ] r)
         [ ("plain", plain_row); ("durable", durable_row) ]);
    Printf.printf "  checkpoint overhead over a plain fence: %+.1f%%\n%!" overhead_pct;
    (* Curve 2: kill a worker right after epoch [epochs-1] commits its
       manifest and measure first-kill-to-completion as checkpoint depth
       grows. Because a recovery point is just a root hash, resuming from
       a deep manifest costs the same as a shallow one — recovery time
       should stay flat while the snapshot grows. The seed is chosen so
       the window assassin's target epoch is [epochs - 1]. *)
    let depths = if fast then [ 2; 4 ] else [ 2; 4; 8 ] in
    let runs =
      List.map
        (fun epochs ->
          ( epochs,
            run { default with kill = Some Between_ckpt_and_fence; epochs; seed = (2 * epochs) - 3 }
          ))
        depths
    in
    let rows =
      List.map
        (fun (epochs, r) ->
          ("epochs", Json.int epochs)
          :: Harness.pick
               [
                 "recovery_time"; "attempts"; "requeues"; "resume_from"; "acked_epoch";
                 "snapshot_objects"; "snapshot_bytes"; "violations";
               ]
               (row r))
        runs
    in
    Harness.print_table rows;
    {
      Harness.doc =
        Json.obj
          [
            ("experiment", Json.string "ckpt");
            ("nodes", Json.int default.size);
            ("workers", Json.int (List.length default.workers));
            ("overhead_epochs", Json.int epochs);
            ("plain_fence_mean", List.assoc "ckpt_mean" plain_row);
            ("plain_fence_p50", List.assoc "ckpt_p50" plain_row);
            ("durable_ckpt_mean", List.assoc "ckpt_mean" durable_row);
            ("durable_ckpt_p50", List.assoc "ckpt_p50" durable_row);
            ("overhead_pct", Json.float overhead_pct);
            ("tier", Harness.tier ~fast);
            ("recovery_rows", Json.list (List.map Json.obj rows));
          ];
      violations =
        Harness.labelled "plain" plain.r_violations
        @ Harness.labelled "durable" durable.r_violations
        @ List.concat_map
            (fun (epochs, r) -> Harness.labelled (Printf.sprintf "depth-%d" epochs) r.r_violations)
            runs;
      host = [];
    }
  in
  let cli =
    let open Cmdliner in
    let int names docv doc v = Harness.opt Arg.int names ~docv ~doc v in
    let kill =
      Harness.opt (Arg.enum kills) [ "kill" ] ~docv:"KIND" default.kill
        ~doc:
          "Kill schedule: node (worker mid-job), master (KVS master mid-snapshot), window \
           (worker between checkpoint and fence), or none (fault-free)."
    in
    let go size fanout per_rank epochs keys_per_epoch seed kill =
      (* Up to four workers from rank 2, clear of the never-killed ranks. *)
      let workers = List.init (max 0 (min 4 (size - 5))) (fun i -> i + 2) in
      let cfg =
        { default with size; fanout; kill; workers; per_rank; epochs; keys_per_epoch; seed }
      in
      Harness.validated (validate cfg) (fun () ->
          let r = run cfg in
          Harness.print_row (row r);
          r.r_violations)
    in
    Term.(
      ret
        (const go $ Harness.nodes default.size $ Harness.fanout default.fanout
        $ int [ "ppn" ] "PPN" "Tasks per worker node." default.per_rank
        $ int [ "epochs" ] "EPOCHS" "Checkpoint epochs the job runs through." default.epochs
        $ int [ "interval" ] "KEYS" "Work between checkpoints: keys each task writes per epoch."
            default.keys_per_epoch
        $ Harness.seed ~doc:"Kill-schedule seed." default.seed
        $ kill))
  in
  {
    Harness.name = "ckpt";
    title = "checkpointing job under a seeded kill schedule (recovery time, checkpoint overhead)";
    sweep;
    cli;
  }
