(* The benchmark of record.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test

   --trace 0 repeats the workload untraced until S seconds have passed
   (at least four times) and prints the end-to-end metrics: medians of
   the wall and set-up times in reference seconds (see
   [Probe.reference_loop]), the live heap at drain, and the simulated
   (virtual-time) results. --trace 1 alternates a layered pass (the
   benchmark steps the engine itself and reads each layer's public
   counters) with a traced pass (session tracer and metrics registry
   on) and prints the per-layer metrics, including the tracer's
   overhead on wall time.

   Every run checks its outputs: each KAP get against the value its
   producer put, each pilot task for exactly one execution and one
   ack, and every repetition (traced or not) for the same determinism
   fingerprint. Any failure makes [correct] false and the exit code 1.
   The last line of standard output is the result object; the line
   before it records the workload's dimensions, its determinism
   fingerprint (engine events, final virtual clock, RPC messages) and
   the run's conditions: seed, OCaml version, GC settings in force,
   processor count, and the real seconds of every pass and of the
   reference loop before it. *)

module Json = Flux_json.Json
open Probe

(* [w_run] builds the engine, session, modules and inputs and returns
   the thunk that drains the engine and audits the outputs; the time
   [w_run] takes is the set-up time. [live] asks the thunk to measure
   the live heap at drain, which costs a full major collection. *)
type workload = {
  w_name : string;
  w_run : toy:bool -> seed:int -> plant:bool -> mode:mode -> live:bool -> unit -> outcome;
  w_dims : Json.t;
}

let workloads =
  [
    {
      w_name = "kap-fence";
      w_run =
        (fun ~toy ->
          Kap_load.run (if toy then Kap_load.toy Kap_load.fence_shape else Kap_load.fence_shape));
      w_dims = Json.obj (Kap_load.dims Kap_load.fence_shape);
    };
    {
      w_name = "kap-get";
      w_run =
        (fun ~toy ->
          Kap_load.run (if toy then Kap_load.toy Kap_load.get_shape else Kap_load.get_shape));
      w_dims = Json.obj (Kap_load.dims Kap_load.get_shape);
    };
    {
      w_name = "sched-pilot";
      w_run = (fun ~toy -> Pilot_load.run (if toy then Pilot_load.toy else Pilot_load.shape));
      w_dims = Json.obj (Pilot_load.dims Pilot_load.shape);
    };
  ]

(* The metrics of record, in BENCHMARK.json order, with their units. *)
let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("live_heap_mb", "MB");
    ("sim_op_p50_s", "s");
    ("sim_op_p99_s", "s");
    ("sim_ops_per_s", "1/s");
  ]

let per_layer =
  [
    ("sim.events", "count");
    ("sim.clock_s", "s");
    ("sim.us_per_event", "us/event");
    ("sim.compactions", "count");
    ("net.rpc.msgs", "count");
    ("net.rpc.bytes", "B");
    ("net.event.msgs", "count");
    ("net.event.bytes", "B");
    ("net.ring.msgs", "count");
    ("net.ring.bytes", "B");
    ("net.dropped", "count");
    ("net.rpc.queue_wait_p99_sim_s", "s");
    ("cmb.rpc_messages", "count");
    ("cmb.rpc_retries", "count");
    ("cmb.rpc_timeouts", "count");
    ("cmb.root_ingress_bytes", "B");
    ("cmb.rpc_latency_p50_sim_s", "s");
    ("cmb.rpc_latency_p99_sim_s", "s");
    ("kvs.loads_issued", "count");
    ("kvs.master_store_bytes", "B");
    ("kvs.cached_objects", "count");
    ("kvs.cache_hit_ratio", "ratio");
    ("kvs.cache_lookups", "count");
    ("kvs.fault_in_p99_sim_s", "s");
    ("kvs.commit_tuples", "count");
    ("kap.barrier.wall_s", "s");
    ("kap.barrier.events", "count");
    ("kap.put.wall_s", "s");
    ("kap.put.events", "count");
    ("kap.fence.wall_s", "s");
    ("kap.fence.events", "count");
    ("kap.get.wall_s", "s");
    ("kap.get.events", "count");
    ("kap.put_max_sim_s", "s");
    ("kap.fence_max_sim_s", "s");
    ("kap.get_max_sim_s", "s");
    ("kap.get_p50_sim_s", "s");
    ("json.size_ns_per_obj", "ns/obj");
    ("json.print_ns_per_byte", "ns/B");
    ("sha1.ns_per_byte", "ns/B");
    ("payload.objects", "count");
    ("payload.bytes", "B");
    ("gc.alloc_words_per_event", "words/event");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_words", "words");
    ("gc.pause_s", "s");
    ("gc.top_heap_mb", "MB");
    ("core.sched_cycles", "count");
    ("core.queue_len_max", "count");
    ("core.level0.submit_match_mean_sim_s", "s");
    ("core.level1.submit_match_mean_sim_s", "s");
    ("core.level2.submit_match_mean_sim_s", "s");
    ("core.jobs_per_s_sim", "1/s");
    ("core.wait_p50_sim_s", "s");
    ("core.wait_p99_sim_s", "s");
    ("wexec.tasks_started", "count");
    ("wexec.tasks_done", "count");
    ("wexec.start_complete_mean_sim_s", "s");
    ("trace.overhead_frac", "ratio");
    ("ops_failed_frac", "ratio");
    ("ref.loop_s", "s");
  ]

(* --- Running a workload ----------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : row list;  (** measured rows, before the canonical fill *)
  problems : string list;
  pass_walls : float list;  (** real wall seconds of every pass, in run order *)
  reference : float list;  (** real seconds of the reference loop before each pass *)
  first : outcome option;  (** the first pass, for the determinism fingerprint *)
}

let fingerprint (o : outcome) = (o.events, o.clock_s, o.rpc_messages, o.sim)

(* Per-name median over several passes' rows, in first-seen order. *)
let median_rows passes =
  match passes with
  | [] -> []
  | first :: _ ->
    List.map
      (fun r ->
        let vals =
          List.filter_map
            (fun rows -> Option.map (fun x -> x.value) (List.find_opt (fun x -> x.name = r.name) rows))
            passes
        in
        { r with value = median vals })
      first

(* Repeat [one i] until the deadline, and at least [min_iters] times. *)
let repeat ~seconds ~min_iters one =
  let deadline = now () +. float_of_int seconds in
  let rec go i acc =
    if i >= min_iters && now () >= deadline then List.rev acc
    else begin
      Gc.compact ();
      go (i + 1) (List.rev_append (one i) acc)
    end
  in
  go 0 []

let audit outcomes =
  let attempted = List.fold_left (fun acc (o : outcome) -> acc + o.attempted) 0 outcomes in
  let failed = List.fold_left (fun acc (o : outcome) -> acc + o.failed) 0 outcomes in
  let problems =
    (if failed > 0 then [ Printf.sprintf "%d of %d operations failed or read a wrong value" failed attempted ]
     else [])
    @
    match outcomes with
    | [] -> [ "no pass ran" ]
    | o :: rest ->
      if List.for_all (fun o' -> fingerprint o' = fingerprint o) rest then []
      else [ "determinism fingerprint differs between passes of the same seed" ]
  in
  (attempted, failed, problems)

let setup w ~toy ~seed ~plant ~mode ~live =
  let t0 = now () in
  let go = w.w_run ~toy ~seed ~plant ~mode ~live in
  (now () -. t0, go)

(* Set-up takes milliseconds, so besides one sample per pass the run
   takes [setup_samples] more and reports the median of all of them. *)
let setup_samples = 25

(* Medians of wall time leave out the first pass of a run: it warms the
   heap up, which every later pass then reuses. *)
let timed = function _ :: (_ :: _ as rest) -> rest | l -> l

(* Each pass is rescaled by the median of [reference_samples] runs of
   the reference loop taken just before it, between the heap
   compaction and the set-up. *)
let reference_samples = 3

let reference () = median (List.init reference_samples (fun _ -> reference_s ()))

let rescale r x = x *. reference_nominal_s /. r

(* The live heap is deterministic for a seed, so only the first pass
   pays the full major collection that measures it. Wall and set-up
   times are medians of rescaled samples, in reference seconds. *)
let run_end_to_end w ~toy ~seed ~seconds ~plant =
  Gc.compact ();
  let r0 = reference () in
  let extra =
    List.init setup_samples (fun _ ->
        rescale r0 (fst (setup w ~toy ~seed ~plant ~mode:Plain ~live:false)))
  in
  let passes =
    repeat ~seconds ~min_iters:4 (fun i ->
        let r = reference () in
        let s, go = setup w ~toy ~seed ~plant ~mode:Plain ~live:(i = 0) in
        [ (r, s, go ()) ])
  in
  let outs = List.map (fun (_, _, o) -> o) passes in
  let attempted, failed, problems = audit outs in
  let sim = match outs with o :: _ -> o.sim | [] -> [] in
  {
    correct = problems = [];
    attempted;
    failed;
    metrics =
      [
        row "wall_s" "s" (median (List.map (fun (r, _, o) -> rescale r o.wall_s) (timed passes)));
        row "setup_s" "s" (median (extra @ List.map (fun (r, s, _) -> rescale r s) passes));
        row "live_heap_mb" "MB" (match outs with o :: _ -> o.live_mb | [] -> 0.0);
      ]
      @ sim;
    problems;
    pass_walls = List.map (fun (o : outcome) -> o.wall_s) outs;
    reference = r0 :: List.map (fun (r, _, _) -> r) passes;
    first = List.nth_opt outs 0;
  }

let run_layers w ~toy ~seed ~seconds ~plant =
  Pause.start ();
  (* Alternate which pass goes first so drift does not bias the
     overhead figure. *)
  let refs = ref [] in
  let passes =
    repeat ~seconds ~min_iters:1 (fun i ->
        refs := reference () :: !refs;
        let layered () = w.w_run ~toy ~seed ~plant ~mode:Layered ~live:false () in
        let traced () = w.w_run ~toy ~seed ~plant ~mode:Traced ~live:false () in
        if i mod 2 = 0 then
          let l = layered () in
          Gc.compact ();
          [ l; traced () ]
        else
          let t = traced () in
          Gc.compact ();
          [ t; layered () ])
  in
  let attempted, failed, problems = audit passes in
  let layered = List.filteri (fun i _ -> i mod 4 = 0 || i mod 4 = 3) passes in
  let traced = List.filteri (fun i _ -> i mod 4 = 1 || i mod 4 = 2) passes in
  let base = median_rows (List.map (fun (o : outcome) -> o.layers) (timed layered)) in
  let extra =
    List.filter
      (fun r -> not (List.exists (fun b -> b.name = r.name) base))
      (median_rows (List.map (fun (o : outcome) -> o.layers) (timed traced)))
  in
  let wall os = median (List.map (fun (o : outcome) -> o.wall_s) (timed os)) in
  let store = match List.rev layered with o :: _ -> o.store | [] -> [] in
  {
    correct = problems = [];
    attempted;
    failed;
    metrics =
      base @ extra @ payload_rows store
      @ [
          row "trace.overhead_frac" "ratio" ((wall traced /. wall layered) -. 1.0);
          row "ops_failed_frac" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
          row "ref.loop_s" "s" (median !refs);
        ];
    problems;
    pass_walls = List.map (fun (o : outcome) -> o.wall_s) passes;
    reference = List.rev !refs;
    first = List.nth_opt passes 0;
  }

(* The printed metrics: the canonical list in order, each with its
   unit. A per-layer metric the workload does not exercise (the
   scheduler on a KAP run, the KAP phases on the pilot run) reads 0. *)
let canonical ~trace (r : result) =
  let names = if trace then per_layer else end_to_end in
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) r.metrics with
      | Some x -> x
      | None -> row name unit_ 0.0)
    names

let result_json ~trace r =
  let value v = if Float.is_finite v then Json.float v else Json.null in
  Json.obj
    [
      ("correct", Json.bool r.correct);
      ("attempted", Json.int r.attempted);
      ("failed", Json.int r.failed);
      ( "metrics",
        Json.obj
          (List.map
             (fun x -> (x.name, Json.obj [ ("value", value x.value); ("unit", Json.string x.unit_) ]))
             (canonical ~trace r)) );
    ]

let conditions w ~seed ~seconds ~trace r =
  let g = Gc.get () in
  Json.obj
    [
      ("workload", Json.string w.w_name);
      ("dimensions", w.w_dims);
      ( "fingerprint",
        match r.first with
        | None -> Json.null
        | Some o ->
          Json.obj
            [
              ("sim.events", Json.int o.events);
              ("sim.clock_s", Json.float o.clock_s);
              ("cmb.rpc_messages", Json.int o.rpc_messages);
            ] );
      ( "conditions",
        Json.obj
          [
            ("seed", Json.int seed);
            ("seconds", Json.int seconds);
            ("trace", Json.bool trace);
            ("pass_wall_s", Json.list (List.map Json.float r.pass_walls));
            ("reference_loop_s", Json.list (List.map Json.float r.reference));
            ("ocaml", Json.string Sys.ocaml_version);
            ("nproc", Json.int (Domain.recommended_domain_count ()));
            ( "gc",
              Json.obj
                [
                  ("minor_heap_size", Json.int g.Gc.minor_heap_size);
                  ("space_overhead", Json.int g.Gc.space_overhead);
                  ("max_overhead", Json.int g.Gc.max_overhead);
                  ("stack_limit", Json.int g.Gc.stack_limit);
                  ("allocation_policy", Json.int g.Gc.allocation_policy);
                  ("window_size", Json.int g.Gc.window_size);
                  ("custom_major_ratio", Json.int g.Gc.custom_major_ratio);
                  ("custom_minor_ratio", Json.int g.Gc.custom_minor_ratio);
                  ("custom_minor_max_size", Json.int g.Gc.custom_minor_max_size);
                ] );
          ] );
      ("problems", Json.strings r.problems);
    ]

(* --- Self-test ----------------------------------------------------------------- *)

(* Toy sizes (8 nodes; 100 pilot tasks). Checks that every metric of
   record is measured by some workload and printed with its unit, that
   the lists here match BENCHMARK.json, and that a planted wrong value
   is caught on both kinds of workload. Run from the repository root. *)
let self_test () =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let measured = Hashtbl.create 64 in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r =
            (if trace then run_layers else run_end_to_end) w ~toy:true ~seed:3 ~seconds:0 ~plant:false
          in
          if not r.correct then fail "%s: toy run not correct: %s" w.w_name (String.concat "; " r.problems);
          List.iter
            (fun x ->
              Hashtbl.replace measured x.name ();
              match List.assoc_opt x.name (end_to_end @ per_layer) with
              | None -> fail "%s: %s is not a metric of record" w.w_name x.name
              | Some u when u <> x.unit_ -> fail "%s: %s measured in %s, recorded as %s" w.w_name x.name x.unit_ u
              | Some _ -> ())
            r.metrics;
          let printed = Json.member "metrics" (result_json ~trace r) in
          List.iter
            (fun (name, unit_) ->
              match Json.member_opt name printed with
              | Some m when Json.to_string_v (Json.member "unit" m) = unit_ -> ()
              | _ -> fail "%s: %s not printed with unit %s" w.w_name name unit_)
            (if trace then per_layer else end_to_end);
          if not trace then
            List.iter
              (fun x ->
                if x.value <= 0.0 then fail "%s: end-to-end %s is %g" w.w_name x.name x.value)
              (canonical ~trace r))
        [ false; true ];
      let planted = run_end_to_end w ~toy:true ~seed:3 ~seconds:0 ~plant:true in
      if planted.correct || planted.failed = 0 then fail "%s: planted wrong value not caught" w.w_name)
    workloads;
  List.iter
    (fun (name, _) -> if not (Hashtbl.mem measured name) then fail "%s is measured by no workload" name)
    (end_to_end @ per_layer);
  (match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
  | exception Sys_error e -> fail "cannot read BENCHMARK.json: %s" e
  | text ->
    let doc = Json.of_string text in
    let listed key =
      List.map
        (fun m -> (Json.to_string_v (Json.member "name" m), Json.to_string_v (Json.member "unit" m)))
        (Json.to_list (Json.member key doc))
    in
    if listed "end_to_end" <> end_to_end then fail "BENCHMARK.json end_to_end differs from the benchmark";
    if listed "per_layer" <> per_layer then fail "BENCHMARK.json per_layer differs from the benchmark";
    let names = List.map (fun w -> Json.to_string_v (Json.member "name" w)) (Json.to_list (Json.member "workloads" doc)) in
    if names <> List.map (fun w -> w.w_name) workloads then fail "BENCHMARK.json workloads differ from the benchmark");
  match List.rev !problems with
  | [] ->
    print_endline "self-test ok";
    exit 0
  | ps ->
    List.iter prerr_endline ps;
    exit 1

(* --- Command line --------------------------------------------------------------- *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n       main.exe --self-test\nworkloads: "
    ^ String.concat " " (List.map (fun w -> w.w_name) workloads));
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--self-test" ] then self_test ();
  let rec parse acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((flag, v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get flag = match List.assoc_opt flag opts with Some v -> v | None -> usage () in
  let int_of flag = match int_of_string_opt (get flag) with Some n when n >= 0 -> n | _ -> usage () in
  if List.exists (fun (f, _) -> not (List.mem f [ "--workload"; "--seed"; "--seconds"; "--trace" ])) opts
  then usage ();
  let w =
    match List.find_opt (fun w -> w.w_name = get "--workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int_of "--seed" and seconds = int_of "--seconds" in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let r =
    (if trace then run_layers else run_end_to_end) w ~toy:false ~seed ~seconds ~plant:false
  in
  print_endline (Json.to_string (conditions w ~seed ~seconds ~trace r));
  print_endline (Json.to_string (result_json ~trace r));
  exit (if r.correct then 0 else 1)
