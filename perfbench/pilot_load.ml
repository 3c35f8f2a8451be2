(* sched-pilot: a pilot-style many-task stream (Merzky et al.) through
   a depth-2, fanout-2 tree of nested Flux instances (4 leaves) on 32
   nodes. Open loop: 2,400 single-node wexec tasks (exponential
   durations, mean 0.1 s) arrive with exponential gaps at 400 tasks/s,
   about 1.5x the hierarchy's capacity of roughly 280 jobs/s, so
   queues build at the leaves.

   Chosen because it is the only workload that loads Instance, Policy,
   Pool and Wexec; it does almost no fence or fault-in work. Its wexec
   KVS writes grow directories, so hashing and printing are heavy here
   while kap-get keeps them light. Waits are timed from each task's
   due time, which in virtual time is exactly when it is submitted.

   The stream is quasi-random so that its shape does not depend on the
   seed: arrival gaps and task durations are the exact quantiles of
   their exponential distributions, laid out in a low-discrepancy order
   that the seed shuffles only within short windows. With independent
   draws instead, the backlog at 1.5x capacity (a leaf's scheduling
   cycle grows with its queue) turned the seed's noise into 20-40%
   swings in the median wait from one seed to the next. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Kvs = Flux_kvs.Kvs_module
module Barrier = Flux_modules.Barrier
module Wexec = Flux_modules.Wexec
module Instance = Flux_core.Instance
module Job = Flux_core.Job
module Workload = Flux_core.Workload
module Tracer = Flux_trace.Tracer
module Rng = Flux_util.Rng
open Probe

type shape = { nodes : int; tasks : int; rate : float; depth : int; children : int }

let shape = { nodes = 32; tasks = 2400; rate = 400.0; depth = 2; children = 2 }

let toy = { nodes = 8; tasks = 100; rate = 400.0; depth = 2; children = 2 }

let mean_duration = 0.1

let min_duration = 0.01

let dims s =
  [
    ("nodes", Json.int s.nodes);
    ("tree", Json.string (Printf.sprintf "depth %d, fanout %d" s.depth s.children));
    ("tasks", Json.int s.tasks);
    ("task_mean_s", Json.float mean_duration);
    ("arrival_per_s", Json.float s.rate);
    ("loop", Json.string "open, exponential arrival gaps in jittered low-discrepancy order");
  ]

let prog = "perfbench.task"

let tid_of (j : Job.t) =
  match j.Job.job_payload with
  | Job.App { args; _ } -> Option.map Json.to_int (Json.member_opt "tid" args)
  | Job.Sleep _ | Job.Child _ | Job.Nested _ -> None

let rec instances i = i :: List.concat_map instances (Instance.children i)

(* Span-chain join over the traced run: scheduler-hop wait per level
   (sched.submit -> sched.match) and launch-to-exit time per task
   (wexec.start -> wexec.complete), keyed by job id. *)
type spans = {
  submits : (string, float * int) Hashtbl.t;
  matches : (string, float) Hashtbl.t;
  starts : (string, float) Hashtbl.t;
  completes : (string, float) Hashtbl.t;
}

let record sp (e : Tracer.event) =
  let field name = Json.member_opt name (Json.obj e.Tracer.ev_fields) in
  let id name = Option.map Json.to_string_v (field name) in
  match (e.Tracer.ev_cat, e.Tracer.ev_name) with
  | "sched", "submit" -> (
    match (id "jid", field "depth") with
    | Some j, Some d -> Hashtbl.replace sp.submits j (e.Tracer.ev_ts, Json.to_int d)
    | _ -> ())
  | "sched", "match" -> Option.iter (fun j -> Hashtbl.replace sp.matches j e.Tracer.ev_ts) (id "jid")
  | "wexec", "start" ->
    Option.iter
      (fun j -> if not (Hashtbl.mem sp.starts j) then Hashtbl.replace sp.starts j e.Tracer.ev_ts)
      (id "jobid")
  | "wexec", "complete" ->
    Option.iter (fun j -> Hashtbl.replace sp.completes j e.Tracer.ev_ts) (id "jobid")
  | _ -> ()

let span_rows s sp =
  let level = Array.make (s.depth + 1) [] in
  Hashtbl.iter
    (fun jid (t_submit, d) ->
      match Hashtbl.find_opt sp.matches jid with
      | Some t_match when d >= 0 && d <= s.depth -> level.(d) <- (t_match -. t_submit) :: level.(d)
      | _ -> ())
    sp.submits;
  let run_times =
    Hashtbl.fold
      (fun jid t0 acc ->
        match Hashtbl.find_opt sp.completes jid with Some t1 -> (t1 -. t0) :: acc | None -> acc)
      sp.starts []
  in
  List.init 3 (fun d ->
      row (Printf.sprintf "core.level%d.submit_match_mean_sim_s" d) "s"
        (if d <= s.depth then mean (Array.of_list level.(d)) else 0.0))
  @ [ row "wexec.start_complete_mean_sim_s" "s" (mean (Array.of_list run_times)) ]

let leaves s = int_of_float (float_of_int s.children ** float_of_int s.depth)

(* Fisher-Yates shuffle of a.(lo .. hi-1), in place. *)
let shuffle_range rng a lo hi =
  for i = hi - 1 downto lo + 1 do
    let j = lo + Rng.int rng (i - lo + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* A low-discrepancy order of [0, n): position i holds the rank of
   frac(i * golden ratio), so every run of consecutive positions draws
   evenly from the whole range. The seed then shuffles positions
   within consecutive windows of [window], which changes every input
   but not the stream's shape at scales above the window. *)
let jittered_order rng n ~window =
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let key i = Float.rem (float_of_int i *. phi) 1.0 in
  let by_key = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Float.compare (key i) (key j)) by_key;
  let order = Array.make n 0 in
  Array.iteri (fun rank i -> order.(i) <- rank) by_key;
  let lo = ref 0 in
  while !lo < n do
    shuffle_range rng order !lo (min n (!lo + window));
    lo := !lo + window
  done;
  order

(* Quantile [k] of [n] of the unit-mean exponential distribution. *)
let exp_quantile ~n k = -.log (1.0 -. ((float_of_int k +. 0.5) /. float_of_int n))

(* Arrival gaps and task durations are the exact quantiles of their
   exponential distributions, so the stream's totals never depend on
   the seed. [Workload.nest] deals task i to leaf i mod leaves, so each
   block of [leaves] consecutive tasks takes one stratum of [leaves]
   adjacent duration quantiles, one task per leaf: every leaf gets the
   same work. *)
let stream s ~seed =
  let rng = Rng.create seed in
  let n = s.tasks and l = leaves s in
  if n mod l <> 0 then invalid_arg "Pilot_load.stream: tasks must divide evenly among the leaves";
  let window = 32 in
  let gap_rank = jittered_order rng n ~window in
  let strata = jittered_order rng (n / l) ~window:(window / l) in
  let durations = Array.make n 0.0 in
  Array.iteri
    (fun block stratum ->
      let slots = Array.init l Fun.id in
      shuffle_range rng slots 0 l;
      Array.iteri
        (fun j slot ->
          durations.((block * l) + slot) <-
            Float.max min_duration (mean_duration *. exp_quantile ~n ((stratum * l) + j)))
        slots)
    strata;
  let at = ref 0.0 in
  List.init n (fun i ->
      at := !at +. (exp_quantile ~n gap_rank.(i) /. s.rate);
      let d = durations.(i) in
      {
        Job.sub_after = !at;
        sub_spec = Flux_core.Jobspec.make ~nnodes:1 ~walltime_est:(2.0 *. d) ();
        sub_payload = Job.App { prog; args = Json.obj [ ("tid", Json.int i) ]; per_rank = 1; duration = d };
      })

let run s ~seed ~plant ~mode ~live =
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout:2 ~size:s.nodes () in
  let kvs = Kvs.load sess () in
  let barriers = Barrier.load sess () in
  let wexec = Wexec.load sess () in
  let root = Instance.create_root sess ~policy:"fcfs" ~name:"sched" () in
  let spans =
    { submits = Hashtbl.create 4096; matches = Hashtbl.create 4096; starts = Hashtbl.create 4096; completes = Hashtbl.create 4096 }
  in
  let registry =
    match mode with
    | Traced ->
      let tr = Tracer.create ~capacity:65_536 ~now:(fun () -> Engine.now eng) () in
      let m = Flux_trace.Metrics.create () in
      Tracer.subscribe tr (record spans);
      Session.set_tracer sess (Some tr);
      Session.set_metrics sess (Some m);
      Kvs.set_tracer_all kvs tr;
      Kvs.set_metrics_all kvs m;
      Barrier.set_tracer_all barriers tr;
      Wexec.set_tracer_all wexec (Some tr);
      Wexec.set_metrics_all wexec m;
      Instance.set_tracer root (Some tr);
      Some m
    | Plain | Layered -> None
  in
  let execs = Array.make s.tasks 0 in
  (* The program registry is global: the returned thunk must run before
     the next set-up replaces this body. *)
  Wexec.register_program prog (fun ctx ->
      Proc.sleep (Json.to_float (Json.member "duration" ctx.Wexec.px_args));
      let tid = Json.to_int (Json.member "tid" ctx.Wexec.px_args) in
      execs.(tid) <- (execs.(tid) + if plant && tid = 0 then 2 else 1));
  Instance.submit_plan root
    (Workload.nest ~depth:s.depth ~children:s.children ~policy:"fcfs" ~nnodes:s.nodes
       (stream s ~seed));
  fun () ->
    let queue_max = ref 0 in
    let steps = ref 0 in
    let on_step () =
      incr steps;
      if !steps land 255 = 0 then
        queue_max :=
          max !queue_max
            (List.fold_left (fun acc i -> acc + Instance.queue_length i) 0 (instances root))
    in
    let wall_s, gc_rows = drive mode eng ~on_step in
    (* Exactly-once audit from the job records: every task acked by one
       completed job and executed by one task body. *)
    let all = instances root in
    let jobs = List.concat_map Instance.jobs all in
    let acks = Array.make s.tasks 0 in
    let waits = ref [] in
    let first_submit = ref infinity and last_end = ref 0.0 in
    List.iter
      (fun (j : Job.t) ->
        match tid_of j with
        | None -> ()
        | Some tid ->
          first_submit := Float.min !first_submit j.Job.submit_time;
          if j.Job.jstate = Job.Complete then begin
            acks.(tid) <- acks.(tid) + 1;
            waits := Job.wait_time j :: !waits;
            last_end := Float.max !last_end j.Job.end_time
          end)
      jobs;
    let ok = ref 0 in
    Array.iteri (fun tid a -> if a = 1 && execs.(tid) = 1 then incr ok) acks;
    let waits = sorted_copy (Array.of_list !waits) in
    let makespan = !last_end -. !first_submit in
    let jobs_per_s = if makespan > 0.0 then float_of_int (Array.length waits) /. makespan else 0.0 in
    let sim =
      [
        row "sim_op_p50_s" "s" (quantile waits 0.5);
        row "sim_op_p99_s" "s" (quantile waits 0.99);
        row "sim_ops_per_s" "1/s" jobs_per_s;
      ]
    in
    let layers =
      match mode with
      | Plain -> []
      | Layered | Traced ->
        engine_rows eng ~wall:wall_s @ session_rows sess @ kvs_rows kvs @ gc_rows
        @ [
            count "core.sched_cycles"
              (List.fold_left (fun acc i -> acc + (Instance.stats i).Instance.st_sched_cycles) 0 all);
            count "core.queue_len_max" !queue_max;
            row "core.jobs_per_s_sim" "1/s" jobs_per_s;
            row "core.wait_p50_sim_s" "s" (quantile waits 0.5);
            row "core.wait_p99_sim_s" "s" (quantile waits 0.99);
          ]
        @
        match registry with
        | Some m ->
          registry_rows m @ span_rows s spans
          @ [
              count "wexec.tasks_started" (Flux_trace.Metrics.counter_total m ~name:"wexec.tasks.started");
              count "wexec.tasks_done" (Flux_trace.Metrics.counter_total m ~name:"wexec.tasks.done");
            ]
        | None -> []
    in
    {
      attempted = s.tasks;
      failed = s.tasks - !ok;
      wall_s;
      events = Engine.events_executed eng;
      clock_s = Engine.now eng;
      rpc_messages = (Session.rpc_net_stats sess).Flux_sim.Net.messages;
      sim;
      layers;
      store = (match mode with Layered -> final_store kvs | Plain | Traced -> []);
      live_mb = (if live then live_heap_mb (eng, sess, kvs, barriers, wexec, root) else 0.0);
    }
