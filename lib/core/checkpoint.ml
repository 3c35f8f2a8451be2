module Json = Flux_json.Json
module Api = Flux_cmb.Api
module Session = Flux_cmb.Session
module Wexec = Flux_modules.Wexec
module Client = Flux_kvs.Client
module Metrics = Flux_trace.Metrics

type outcome = {
  o_jobid : string;
  o_attempts : int;
  o_completion : Wexec.completion;
  o_resumed_from : Wexec.manifest option;
}

let attempt_jobid base k = if k = 0 then base else Printf.sprintf "%s.r%d" base k

(* Merge a resume manifest into object args; wrap anything else so
   non-object args still round-trip under "base". Shared by the requeue
   driver below and by {!Instance.request_shrink}'s preemption requeue. *)
let with_resume args m =
  match m with
  | None -> args
  | Some m -> (
    let mjson = Wexec.manifest_to_json m in
    match args with
    | Json.Null -> Json.obj [ ("resume", mjson) ]
    | Json.Obj _ -> Json.set_member "resume" mjson args
    | _ -> Json.obj [ ("base", args); ("resume", mjson) ])

(* The newest verified manifest across the attempt chain: attempts write
   manifests under their own jobid (each attempt fences under fresh
   names — see {!Wexec.checkpoint}), so scan past attempts newest-first
   and keep the highest epoch found. *)
let newest_across kvs ~jobids ~max_epoch =
  List.fold_left
    (fun best j ->
      match Wexec.newest_manifest kvs ~jobid:j ~max_epoch with
      | None -> best
      | Some m -> (
        match best with
        | Some b when b.Wexec.m_epoch >= m.Wexec.m_epoch -> best
        | _ -> Some m))
    None jobids

(* Requeue budget of {!run_resilient}. *)
let max_requeues = 3

let run_resilient api ~kvs ?metrics ?(max_epoch = 64) ~jobid ~prog ?(per_rank = 1) ~ranks () =
  let sess = Api.session api in
  let active = ref true in
  let cur_jobid = ref (attempt_jobid jobid 0) in
  let cur_ranks = ref ranks in
  (* Down-node detection: the wexec master accounts the dead rank's
     tasks as failures, but surviving tasks may be parked in a
     checkpoint fence that can no longer complete — kill the attempt so
     [Wexec.run] returns and the requeue path takes over. *)
  Session.add_liveness_watch sess (fun r up ->
      if !active && (not up) && List.mem r !cur_ranks then Wexec.kill api ~jobid:!cur_jobid);
  let requeue_metric () =
    match metrics with
    | Some m -> Metrics.incr m ~name:"ckpt.requeue" ~rank:(Api.rank api)
    | None -> ()
  in
  let rec go k ~past ~resumed =
    let this = attempt_jobid jobid k in
    cur_jobid := this;
    let live = List.filter (fun r -> not (Session.is_down sess r)) ranks in
    cur_ranks := live;
    if live = [] then begin
      active := false;
      Error (Printf.sprintf "job %S: no live ranks left to requeue on" jobid)
    end
    else begin
      let args = with_resume Json.null resumed in
      match Wexec.run api ~jobid:this ~prog ~args ~per_rank ~ranks:live () with
      | Error e ->
        active := false;
        Error e
      | Ok c when c.Wexec.c_failed = 0 || k >= max_requeues ->
        active := false;
        Ok { o_jobid = this; o_attempts = k + 1; o_completion = c; o_resumed_from = resumed }
      | Ok _ ->
        requeue_metric ();
        let past = this :: past in
        (* Resume from the newest manifest any past attempt recorded;
           an attempt that died before its first checkpoint restarts
           from the previous attempt's manifest (or from scratch). *)
        let resumed = newest_across kvs ~jobids:past ~max_epoch in
        go (k + 1) ~past ~resumed
    end
  in
  go 0 ~past:[] ~resumed:None
