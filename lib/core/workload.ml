module Rng = Flux_util.Rng

let duration_of_payload = function
  | Job.Sleep d -> d
  | Job.App { duration; _ } -> duration
  | Job.Child _ | Job.Nested _ -> 0.0

let uq_ensemble rng ~n ?(mean_duration = 60.0) () =
  List.init n (fun _ ->
      let d = Float.max 1.0 (Rng.exponential rng mean_duration) in
      {
        Job.sub_after = 0.0;
        sub_spec = Jobspec.make ~nnodes:1 ~walltime_est:(2.0 *. d) ();
        sub_payload = Job.Sleep d;
      })

let log_uniform rng ~max_value =
  (* 1 .. max_value with log-uniform mass. *)
  let bits = int_of_float (Float.log2 (float_of_int max_value)) in
  let b = Rng.int rng (bits + 1) in
  let lo = 1 lsl b in
  let hi = min max_value (2 * lo) in
  lo + Rng.int rng (max 1 (hi - lo))

let batch_mix rng ~n ~max_nodes ?(mean_duration = 120.0) () =
  List.init n (fun _ ->
      let nnodes = min max_nodes (log_uniform rng ~max_value:max_nodes) in
      let d = Float.max 1.0 (Rng.exponential rng mean_duration) in
      {
        Job.sub_after = 0.0;
        sub_spec = Jobspec.make ~nnodes ~walltime_est:(2.0 *. d) ();
        sub_payload = Job.Sleep d;
      })

let pilot_mean_duration = 0.1

let pilot_tasks rng ~n ?(prog = "") () =
  (* Merzky-style pilot stream: many single-node sub-second tasks, all
     submitted at t=0. With [prog] the tasks are wexec launches (args
     carry a stable logical task id for exactly-once accounting across
     requeues); without, synthetic [Sleep]s with the identical duration
     draws — so a baseline can consume the same stream shape without a
     wexec stack. *)
  List.init n (fun i ->
      let d = Float.max 0.01 (Rng.exponential rng pilot_mean_duration) in
      let payload =
        if prog = "" then Job.Sleep d
        else
          Job.App
            {
              prog;
              args = Flux_json.Json.obj [ ("tid", Flux_json.Json.int i) ];
              per_rank = 1;
              duration = d;
            }
      in
      {
        Job.sub_after = 0.0;
        sub_spec = Jobspec.make ~nnodes:1 ~walltime_est:(2.0 *. d) ();
        sub_payload = payload;
      })

let split_round_robin k subs =
  if k <= 0 then invalid_arg "Workload.split_round_robin: k must be positive";
  let buckets = Array.make k [] in
  List.iteri (fun i s -> buckets.(i mod k) <- s :: buckets.(i mod k)) subs;
  Array.to_list (Array.map List.rev buckets)

let rec nest ~depth ~children ~policy ~nnodes tasks =
  (* Wrap a task stream into [depth] levels of child instances, each
     level fanning out [children] ways and carving the node set evenly
     (the paper's recursive hierarchy: every level is itself a full
     Flux instance running [policy]). depth = 0 feeds the stream
     unwrapped. *)
  if depth < 0 then invalid_arg "Workload.nest: depth must be >= 0";
  if depth = 0 then tasks
  else begin
    if children <= 1 then invalid_arg "Workload.nest: children must be >= 2";
    let child_nodes = nnodes / children in
    if child_nodes < 1 then invalid_arg "Workload.nest: not enough nodes to split";
    List.map
      (fun group ->
        {
          Job.sub_after = 0.0;
          sub_spec = Jobspec.make ~nnodes:child_nodes ();
          sub_payload =
            Job.Child
              {
                policy;
                workload = nest ~depth:(depth - 1) ~children ~policy ~nnodes:child_nodes group;
              };
        })
      (split_round_robin children tasks)
  end

let total_node_seconds subs =
  List.fold_left
    (fun acc (s : Job.submission) ->
      acc
      +. (float_of_int s.Job.sub_spec.Jobspec.nnodes *. duration_of_payload s.Job.sub_payload))
    0.0 subs
