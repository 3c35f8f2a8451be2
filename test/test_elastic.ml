(* Elasticity controller: property tests over the pure control law,
   regression tests for drain-before-shrink and the job-failure hook
   chain, and end-to-end soak scenarios for the three protection
   regimes, telemetry-silent fallback, denied-grow fallback and
   same-seed determinism. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Jobspec = Flux_core.Jobspec
module Job = Flux_core.Job
module Pool = Flux_core.Pool
module Instance = Flux_core.Instance
module Center = Flux_core.Center
module Ctl = Flux_core.Elastic
module Wexec = Flux_modules.Wexec
module Client = Flux_kvs.Client
module KElastic = Flux_harness.Elastic

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* --- Property tests over the pure control law ----------------------------- *)

(* A random valid policy plus a random decision scene. *)
let gen_scene =
  QCheck.Gen.(
    let* high = 5 -- 50 in
    let* low = 0 -- (high - 1) in
    let* step = 1 -- 8 in
    let* min_n = 1 -- 4 in
    let* span = 0 -- 30 in
    let* cooldown_ms = 100 -- 2000 in
    let* silence_ms = 100 -- 2000 in
    let* require_alert = bool in
    let* nodes = 0 -- 40 in
    let* now_ms = 0 -- 10_000 in
    let* last_ms = -5_000 -- 10_000 in
    let* pressure = 0 -- 60 in
    let* has_pressure = bool in
    let* alert = bool in
    let* fresh = bool in
    return
      ( {
          Ctl.p_metric = "q";
          p_high = float_of_int high;
          p_low = float_of_int low;
          p_step = step;
          p_min_nodes = min_n;
          p_max_nodes = min_n + span;
          p_cooldown = float_of_int cooldown_ms /. 1000.0;
          p_period = 0.1;
          p_require_alert = require_alert;
          p_silence = float_of_int silence_ms /. 1000.0;
        },
        { Ctl.m_last_action = float_of_int last_ms /. 1000.0 },
        {
          Ctl.in_now = float_of_int now_ms /. 1000.0;
          in_pressure = (if has_pressure then Some (float_of_int pressure) else None);
          in_nodes = nodes;
          in_alert = alert;
          in_fresh = fresh;
        } ))

let prop_cooldown_freezes =
  QCheck.Test.make ~name:"any decision within cooldown is a hold" ~count:500
    (QCheck.make gen_scene) (fun (p, m, i) ->
      QCheck.assume (i.Ctl.in_now -. m.Ctl.m_last_action < p.Ctl.p_cooldown);
      match Ctl.decide p m i with Ctl.Hold _ -> true | _ -> false)

let prop_step_bounds =
  QCheck.Test.make ~name:"actions respect step, min and max bounds" ~count:1000
    (QCheck.make gen_scene) (fun (p, m, i) ->
      match Ctl.decide p m i with
      | Ctl.Grow n ->
        n >= 1 && n <= p.Ctl.p_step && i.Ctl.in_nodes + n <= p.Ctl.p_max_nodes
      | Ctl.Shrink n ->
        n >= 1 && n <= p.Ctl.p_step && i.Ctl.in_nodes - n >= p.Ctl.p_min_nodes
      | Ctl.Hold _ -> true)

let prop_deterministic =
  QCheck.Test.make ~name:"same inputs, same decision" ~count:500
    (QCheck.make gen_scene) (fun (p, m, i) -> Ctl.decide p m i = Ctl.decide p m i)

(* Sequential no-flap property: fold a random input sequence through
   decide/remember; any two applied actions must be a full cooldown
   apart — which is exactly "no grow-then-shrink reversal inside one
   cooldown window". *)
let gen_sequence =
  QCheck.Gen.(
    let* p, _, _ = gen_scene in
    let* steps =
      list_size (5 -- 40)
        (let* dt_ms = 10 -- 800 in
         let* pressure = 0 -- 60 in
         let* alert = bool in
         let* fresh = frequency [ (4, return true); (1, return false) ] in
         return (dt_ms, pressure, alert, fresh))
    in
    return (p, steps))

let prop_no_flap =
  QCheck.Test.make ~name:"applied actions are a full cooldown apart" ~count:300
    (QCheck.make gen_sequence) (fun (p, steps) ->
      let _, _, _, actions =
        List.fold_left
          (fun (now, nodes, m, acts) (dt_ms, pressure, alert, fresh) ->
            let now = now +. (float_of_int dt_ms /. 1000.0) in
            let i =
              {
                Ctl.in_now = now;
                in_pressure = Some (float_of_int pressure);
                in_nodes = nodes;
                in_alert = alert;
                in_fresh = fresh;
              }
            in
            let d = Ctl.decide p m i in
            let nodes =
              match d with
              | Ctl.Grow n -> nodes + n
              | Ctl.Shrink n -> nodes - n
              | Ctl.Hold _ -> nodes
            in
            let acts =
              match d with Ctl.Hold _ -> acts | _ -> (now, d) :: acts
            in
            (now, nodes, Ctl.remember m ~now d, acts))
          (0.0, p.Ctl.p_min_nodes, Ctl.fresh_memory, [])
          steps
      in
      let rec gaps_ok = function
        | (t2, _) :: ((t1, _) :: _ as rest) ->
          t2 -. t1 >= p.Ctl.p_cooldown && gaps_ok rest
        | _ -> true
      in
      gaps_ok actions)

(* --- Unit tests for decide ------------------------------------------------ *)

let pol =
  {
    Ctl.default_policy with
    Ctl.p_high = 10.0;
    p_low = 2.0;
    p_step = 3;
    p_min_nodes = 2;
    p_max_nodes = 10;
    p_require_alert = true;
  }

let inp ?(pressure = Some 5.0) ?(nodes = 4) ?(alert = false) ?(fresh = true) now =
  { Ctl.in_now = now; in_pressure = pressure; in_nodes = nodes; in_alert = alert; in_fresh = fresh }

let test_decide_guards () =
  check bool "silent telemetry holds" true
    (Ctl.decide pol Ctl.fresh_memory (inp ~fresh:false 1.0) = Ctl.Hold "telemetry-silent");
  check bool "no data holds" true
    (Ctl.decide pol Ctl.fresh_memory (inp ~pressure:None 1.0) = Ctl.Hold "no-data");
  check bool "in-band holds" true
    (Ctl.decide pol Ctl.fresh_memory (inp ~pressure:(Some 5.0) 1.0) = Ctl.Hold "in-band");
  check bool "high pressure without alert awaits" true
    (Ctl.decide pol Ctl.fresh_memory (inp ~pressure:(Some 20.0) 1.0)
    = Ctl.Hold "awaiting-alert");
  check bool "armed tick grows" true
    (Ctl.decide pol Ctl.fresh_memory (inp ~pressure:(Some 20.0) ~alert:true 1.0)
    = Ctl.Grow 3);
  check bool "pressure-driven policy grows without alert" true
    (Ctl.decide { pol with Ctl.p_require_alert = false } Ctl.fresh_memory
       (inp ~pressure:(Some 20.0) 1.0)
    = Ctl.Grow 3);
  check bool "low pressure shrinks" true
    (Ctl.decide pol Ctl.fresh_memory (inp ~pressure:(Some 1.0) 1.0) = Ctl.Shrink 2);
  check bool "at max holds" true
    (Ctl.decide pol Ctl.fresh_memory (inp ~pressure:(Some 20.0) ~alert:true ~nodes:10 1.0)
    = Ctl.Hold "at-max");
  check bool "at min holds" true
    (Ctl.decide pol Ctl.fresh_memory (inp ~pressure:(Some 1.0) ~nodes:2 1.0)
    = Ctl.Hold "at-min");
  check bool "grow clamps to max" true
    (Ctl.decide pol Ctl.fresh_memory (inp ~pressure:(Some 20.0) ~alert:true ~nodes:9 1.0)
    = Ctl.Grow 1)

let test_policy_validation () =
  check bool "default valid" true (Ctl.validate_policy Ctl.default_policy = Ok ());
  let bad p = match Ctl.validate_policy p with Error _ -> true | Ok () -> false in
  check bool "low >= high" true (bad { pol with Ctl.p_low = 10.0 });
  check bool "zero step" true (bad { pol with Ctl.p_step = 0 });
  check bool "min > max" true (bad { pol with Ctl.p_min_nodes = 11 });
  check bool "zero cooldown" true (bad { pol with Ctl.p_cooldown = 0.0 });
  check bool "create rejects invalid" true
    (let c = Center.create ~nodes:8 () in
     try
       let telem = Flux_modules.Telem.load c.Center.sess () in
       ignore
         (Ctl.create c.Center.sess ~instance:c.Center.root ~telem
            ~policy:{ pol with Ctl.p_step = 0 } ()
           : Ctl.t);
       false
     with Invalid_argument _ -> true)

(* --- Drain-before-shrink regression (PR 10 satellite) --------------------- *)

(* A shrink that outstrips the free pool must preempt running wexec
   tasks, requeue them under fresh attempt ids, and donate the nodes as
   they free — not strand the jobs and not fire the failure hooks. *)
let test_shrink_mid_job_requeues () =
  Wexec.register_program "elastic-test-worker" (fun ctx ->
      let d = Json.to_float (Json.member "duration" ctx.Wexec.px_args) in
      let tid = Json.to_int (Json.member "tid" ctx.Wexec.px_args) in
      Proc.sleep d;
      (match Client.put ctx.Wexec.px_kvs ~key:(Printf.sprintf "shrinktest.t%d" tid)
               (Json.int tid)
       with
      | Ok () -> ()
      | Error e -> failwith e);
      match Client.commit ctx.Wexec.px_kvs with Ok _ -> () | Error e -> failwith e);
  let c = Center.create ~nodes:16 () in
  let root = c.Center.root in
  let keepalive =
    { Job.sub_after = 0.0; sub_spec = Jobspec.make ~nnodes:1 (); sub_payload = Job.Sleep 30.0 }
  in
  ignore
    (Instance.submit root ~spec:(Jobspec.make ~nnodes:6 ())
       ~payload:(Job.Child { policy = "fcfs"; workload = [ keepalive ] })
      : Job.t);
  let hook_fired = ref 0 in
  Instance.on_job_failed root (fun _owner _job -> incr hook_fired);
  let shrink_result = ref (Error (Instance.Resize_invalid 0)) in
  let free_before = ref (-1) in
  let free_after_drain = ref (-1) in
  ignore
    (Engine.schedule c.Center.eng ~delay:0.1 (fun () ->
         match Instance.children root with
         | [ child ] ->
           (* Fill every non-sentinel node with long tasks. *)
           for tid = 0 to 4 do
             ignore
               (Instance.submit child ~spec:(Jobspec.make ~nnodes:1 ())
                  ~payload:
                    (Job.App
                       {
                         prog = "elastic-test-worker";
                         args = Json.obj [ ("tid", Json.int tid) ];
                         per_rank = 1;
                         duration = 2.0;
                       })
                 : Job.t)
           done;
           ignore
             (Engine.schedule c.Center.eng ~delay:1.0 (fun () ->
                  free_before := Pool.free_nodes (Instance.pool root);
                  shrink_result := Instance.request_shrink child ~nnodes:3)
               : Engine.handle);
           ignore
             (Engine.schedule c.Center.eng ~delay:4.0 (fun () ->
                  free_after_drain := Pool.free_nodes (Instance.pool root))
               : Engine.handle)
         | _ -> Alcotest.fail "expected one child")
      : Engine.handle);
  Center.run c;
  check bool "shrink reported a drain" true
    (!shrink_result = Error (Instance.Resize_draining 3));
  check int "3 nodes reached the parent" (!free_before + 3) !free_after_drain;
  (match Instance.children root with
  | [ child ] ->
    let jobs = Instance.jobs child in
    let requeued =
      List.filter
        (fun (j : Job.t) ->
          String.length j.Job.jid > 3
          && String.sub j.Job.jid (String.length j.Job.jid - 3) 3 = ".r1")
        jobs
    in
    check int "3 preempted tasks requeued under fresh attempt ids" 3
      (List.length requeued);
    List.iter
      (fun (j : Job.t) ->
        check bool (j.Job.jid ^ " completed") true (j.Job.jstate = Job.Complete))
      requeued
  | _ -> Alcotest.fail "expected one child");
  check int "preempted jobs bypassed the failure hooks" 0 !hook_fired;
  (* Zero acked-write loss across the rescale: every task (first-shot
     or requeued) committed its key. *)
  let missing = ref 5 in
  ignore
    (Proc.spawn c.Center.eng (fun () ->
         let kv = Flux_kvs.Client.connect c.Center.sess ~rank:0 in
         let m = ref 0 in
         for tid = 0 to 4 do
           match Client.get kv ~key:(Printf.sprintf "shrinktest.t%d" tid) with
           | Ok v when Json.to_int v = tid -> ()
           | _ -> incr m
         done;
         missing := !m));
  Center.run c;
  check int "all task writes survived the rescale" 0 !missing

(* --- on_job_failed hook chain (PR 10 satellite) --------------------------- *)

let test_on_job_failed_bubbles () =
  Wexec.register_program "elastic-test-failer" (fun _ctx ->
      raise (Wexec.Task_failure "boom"));
  let c = Center.create ~nodes:8 () in
  let root = c.Center.root in
  let keepalive =
    { Job.sub_after = 0.0; sub_spec = Jobspec.make ~nnodes:1 (); sub_payload = Job.Sleep 5.0 }
  in
  ignore
    (Instance.submit root ~spec:(Jobspec.make ~nnodes:4 ())
       ~payload:(Job.Child { policy = "fcfs"; workload = [ keepalive ] })
      : Job.t);
  let at_root = ref [] in
  let at_child = ref [] in
  Instance.on_job_failed root (fun owner job ->
      at_root := (Instance.name owner, job.Job.jid) :: !at_root);
  ignore
    (Engine.schedule c.Center.eng ~delay:0.1 (fun () ->
         match Instance.children root with
         | [ child ] ->
           Instance.on_job_failed child (fun _owner job ->
               at_child := job.Job.jid :: !at_child);
           ignore
             (Instance.submit child ~spec:(Jobspec.make ~nnodes:1 ())
                ~payload:
                  (Job.App
                     { prog = "elastic-test-failer"; args = Json.null; per_rank = 1; duration = 0.5 })
               : Job.t)
         | _ -> Alcotest.fail "expected one child")
      : Engine.handle);
  Center.run c;
  check int "root hook saw the descendant failure" 1 (List.length !at_root);
  check int "child hook saw its own failure" 1 (List.length !at_child);
  match !at_root with
  | [ (owner, _) ] ->
    check bool "owner is the child instance, not the root" true
      (owner <> Instance.name root)
  | _ -> ()

(* --- End-to-end soak scenarios -------------------------------------------- *)

let fast_base =
  { KElastic.default with KElastic.duration = 3.0; drain = 1.5 }

let test_three_regimes () =
  let unprot = KElastic.run { fast_base with KElastic.mode = KElastic.Unprotected } in
  let prot = KElastic.run { fast_base with KElastic.mode = KElastic.Protected } in
  let elas = KElastic.run { fast_base with KElastic.mode = KElastic.Elastic } in
  List.iter
    (fun (r : KElastic.report) ->
      check (Alcotest.list Alcotest.string)
        (KElastic.mode_to_string r.KElastic.e_mode ^ " violations")
        [] r.KElastic.e_violations)
    [ unprot; prot; elas ];
  check bool "unprotected queue blows past the cap" true
    (unprot.KElastic.e_queue_peak > fast_base.KElastic.queue_cap);
  check bool "unprotected collapses below protected" true
    (unprot.KElastic.e_goodput < prot.KElastic.e_goodput);
  check bool "protected bounds the queue" true
    (prot.KElastic.e_queue_peak <= fast_base.KElastic.queue_cap);
  check bool "elastic recovers >= 1.5x protected goodput" true
    (elas.KElastic.e_goodput >= 1.5 *. prot.KElastic.e_goodput);
  check bool "elastic grew" true (elas.KElastic.e_grows > 0);
  check bool "elastic gave the nodes back" true
    (elas.KElastic.e_nodes_final < elas.KElastic.e_nodes_peak);
  check int "zero acked-write loss" 0 elas.KElastic.e_write_loss

let test_silent_fallback () =
  let r = KElastic.run { fast_base with KElastic.silence_at = Some 1.5 } in
  check (Alcotest.list Alcotest.string) "violations" [] r.KElastic.e_violations;
  check bool "controller fell back" true (r.KElastic.e_fallback_entries >= 1)

let test_denied_grow () =
  (* A root with almost no headroom: grows hit Resize_exhausted and the
     controller backs off instead of storming the parent. *)
  let r = KElastic.run { fast_base with KElastic.size = 8; child_nodes = 4 } in
  check (Alcotest.list Alcotest.string) "violations" [] r.KElastic.e_violations;
  check bool "some grows were denied" true (r.KElastic.e_denied > 0);
  (* Backoff: every denial stamps the cooldown, so denials are spaced
     at least a cooldown apart — bounded by run length / cooldown. *)
  let bound =
    int_of_float
      ((fast_base.KElastic.duration +. fast_base.KElastic.drain)
      /. fast_base.KElastic.policy.Ctl.p_cooldown)
    + 1
  in
  check bool "denials bounded by cooldown pacing" true (r.KElastic.e_denied <= bound)

let test_same_seed_determinism () =
  let a = KElastic.run fast_base in
  let b = KElastic.run fast_base in
  check string "fingerprints match" a.KElastic.e_fingerprint b.KElastic.e_fingerprint;
  check int "acked match" a.KElastic.e_acked b.KElastic.e_acked;
  check int "events match" a.KElastic.e_events b.KElastic.e_events

let test_config_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  check bool "tiny session" true
    (raises (fun () -> ignore (KElastic.run { fast_base with KElastic.size = 4 })));
  check bool "child too big" true
    (raises (fun () -> ignore (KElastic.run { fast_base with KElastic.child_nodes = 40 })));
  check bool "bad policy" true
    (raises
       (fun () ->
         ignore
           (KElastic.run
              {
                fast_base with
                KElastic.policy = { fast_base.KElastic.policy with Ctl.p_low = 99.0 };
              })))

let () =
  Alcotest.run "flux_elastic"
    [
      ( "control-law",
        List.map QCheck_alcotest.to_alcotest
          [ prop_cooldown_freezes; prop_step_bounds; prop_deterministic; prop_no_flap ]
      );
      ( "decide",
        [
          Alcotest.test_case "guards and bands" `Quick test_decide_guards;
          Alcotest.test_case "policy validation" `Quick test_policy_validation;
        ] );
      ( "rescale",
        [
          Alcotest.test_case "shrink mid-job requeues" `Quick test_shrink_mid_job_requeues;
          Alcotest.test_case "on_job_failed bubbles" `Quick test_on_job_failed_bubbles;
        ] );
      ( "soak",
        [
          Alcotest.test_case "three regimes" `Quick test_three_regimes;
          Alcotest.test_case "telemetry-silent fallback" `Quick test_silent_fallback;
          Alcotest.test_case "denied grow backs off" `Quick test_denied_grow;
          Alcotest.test_case "same seed, same run" `Quick test_same_seed_determinism;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
    ]
