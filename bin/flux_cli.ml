(* The [flux] utility: command-line access to Flux sub-commands, as in
   the paper's prototype. Each invocation assembles a simulated center
   (there is no persistent daemon in the reproduction), performs the
   requested operations, and prints the outcome. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Center = Flux_core.Center
module Instance = Flux_core.Instance
module Job = Flux_core.Job
module Jobspec = Flux_core.Jobspec
module Workload = Flux_core.Workload
module Resource = Flux_core.Resource
module Kap = Flux_kap.Kap

open Cmdliner

let nodes_arg = Flux_harness.Harness.nodes 16
let fanout_arg = Flux_harness.Harness.fanout 2

(* Sizing flags are validated up front so a bad value yields a usage
   error and non-zero exit instead of a backtrace from deep inside the
   simulator (Session.create &c. raise Invalid_argument much later). *)
let checked checks k =
  match List.find_map Fun.id checks with
  | Some msg -> `Error (true, msg)
  | None -> k ()

let positive name v =
  if v <= 0 then Some (Printf.sprintf "%s must be a positive integer (got %d)" name v)
  else None

let at_least name lo v =
  if v < lo then Some (Printf.sprintf "%s must be >= %d (got %d)" name lo v) else None

let in_range name ~lo ~hi v =
  if v < lo || v > hi then
    Some (Printf.sprintf "%s must be in [%d,%d] (got %d)" name lo hi v)
  else None

(* A subcommand whose term reports usage errors through [Term.ret]. *)
let cmd info term = Cmd.v info (Term.map (fun () -> Cmd.Exit.ok) (Term.ret term))

let base_checks nodes fanout = [ positive "-N/--nodes" nodes; at_least "-k/--fanout" 2 fanout ]

let run_to_completion eng f =
  let result = ref None in
  ignore (Proc.spawn eng (fun () -> result := Some (f ())) : Proc.pid);
  Engine.run eng;
  match !result with
  | Some v -> v
  | None -> failwith "internal: driver process did not finish"

let with_session nodes fanout f =
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout ~size:nodes () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Flux_modules.Barrier.load sess () : Flux_modules.Barrier.t array);
  f eng sess

(* --- flux ping ---------------------------------------------------------- *)

let ping_cmd =
  let rank_arg =
    Arg.(value & pos 0 int 0 & info [] ~docv:"RANK" ~doc:"Destination rank.")
  in
  let run nodes fanout rank =
    checked (base_checks nodes fanout @ [ in_range "RANK" ~lo:0 ~hi:(nodes - 1) rank ])
    @@ fun () ->
      with_session nodes fanout (fun eng sess ->
          let api = Api.connect sess ~rank:0 in
          let t0 = ref 0.0 in
          let reply =
            run_to_completion eng (fun () ->
                t0 := Engine.now eng;
                Api.rpc_rank api ~dst:rank ~topic:"cmb.ping" Json.null)
          in
          match reply with
          | Ok payload ->
            Printf.printf "rank %d: pong (ring rtt %.1f us)\n"
              (Json.to_int (Json.member "rank" payload))
              (1e6 *. (Engine.now eng -. !t0));
            `Ok ()
          | Error e -> `Error (false, e))
  in
  cmd
    (Cmd.info "ping" ~doc:"Rank-addressed RPC over the ring overlay.")
    Term.(const run $ nodes_arg $ fanout_arg $ rank_arg)

(* --- flux topo ----------------------------------------------------------- *)

let topo_cmd =
  let run nodes fanout =
    checked (base_checks nodes fanout) @@ fun () ->
    with_session nodes fanout (fun eng sess ->
        let api = Api.connect sess ~rank:0 in
        let print_rank r =
          let reply =
            run_to_completion eng (fun () ->
                Api.rpc_rank api ~dst:r ~topic:"cmb.topo" Json.null)
          in
          match reply with
          | Ok p ->
            Printf.printf "rank %2d: parent=%s children=[%s]\n" r
              (match Json.member "parent" p with
              | Json.Null -> "-"
              | v -> string_of_int (Json.to_int v))
              (String.concat ","
                 (List.map
                    (fun c -> string_of_int (Json.to_int c))
                    (Json.to_list (Json.member "children" p))))
          | Error e -> Printf.printf "rank %2d: error %s\n" r e
        in
        Printf.printf "comms session: %d ranks, %d-ary RPC tree, depth %d\n" nodes fanout
          (Flux_util.Treemath.tree_height ~k:fanout ~size:nodes);
        List.iter print_rank (List.init (min nodes 16) Fun.id);
        if nodes > 16 then Printf.printf "... (%d more ranks)\n" (nodes - 16));
    `Ok ()
  in
  cmd
    (Cmd.info "topo" ~doc:"Print the overlay-network wire-up.")
    Term.(const run $ nodes_arg $ fanout_arg)

(* --- flux kvs ------------------------------------------------------------- *)

let kvs_cmd =
  let puts_arg =
    Arg.(
      value & opt_all string []
      & info [ "p"; "put" ] ~docv:"KEY=VALUE" ~doc:"Bindings to commit before reading.")
  in
  let gets_arg = Arg.(value & pos_all string [] & info [] ~docv:"KEY" ~doc:"Keys to read.") in
  let rank_arg =
    Arg.(value & opt int 0 & info [ "r"; "rank" ] ~doc:"Rank whose broker serves the client.")
  in
  let run nodes fanout rank puts gets =
    checked (base_checks nodes fanout @ [ in_range "-r/--rank" ~lo:0 ~hi:(nodes - 1) rank ])
    @@ fun () ->
    with_session nodes fanout (fun eng sess ->
        let outcome =
          run_to_completion eng (fun () ->
              let c = Client.connect sess ~rank in
              let parse_binding b =
                match String.index_opt b '=' with
                | Some i ->
                  ( String.sub b 0 i,
                    String.sub b (i + 1) (String.length b - i - 1) )
                | None -> failwith (Printf.sprintf "bad binding %S (want KEY=VALUE)" b)
              in
              List.iter
                (fun b ->
                  let k, v = parse_binding b in
                  let value =
                    match Json.of_string_opt v with Some j -> j | None -> Json.string v
                  in
                  match Client.put c ~key:k value with
                  | Ok () -> ()
                  | Error e -> failwith e)
                puts;
              (if puts <> [] then
                 match Client.commit c with
                 | Ok v -> Printf.printf "committed version %d\n" v
                 | Error e -> failwith e);
              List.iter
                (fun k ->
                  match Client.get c ~key:k with
                  | Ok v -> Printf.printf "%s = %s\n" k (Json.to_string v)
                  | Error e -> Printf.printf "%s: error: %s\n" k e)
                gets)
        in
        ignore outcome);
    `Ok ()
  in
  cmd
    (Cmd.info "kvs" ~doc:"Put, commit and get through the distributed KVS.")
    Term.(const run $ nodes_arg $ fanout_arg $ rank_arg $ puts_arg $ gets_arg)

(* --- flux resource ----------------------------------------------------------- *)

let resource_cmd =
  let clusters_arg =
    Arg.(value & opt int 2 & info [ "clusters" ] ~doc:"Number of clusters at the center.")
  in
  let run nodes clusters =
    checked [ positive "-N/--nodes" nodes; positive "--clusters" clusters ] @@ fun () ->
    let c =
      Resource.center ~name:"center"
        (List.init clusters (fun i ->
             Resource.cluster ~nnodes:nodes ~power_watts:(float_of_int nodes *. 300.0)
               ~name:(Printf.sprintf "cluster%d" i) ())
        @ [ Resource.filesystem ~bandwidth_gbs:500.0 ~name:"lscratch" () ])
    in
    Printf.printf "%d nodes, %d cores, %.0f W power envelope, %.0f GB/s shared fs\n"
      (Resource.count Resource.Node c)
      (Resource.count Resource.Core c)
      (Resource.total_quantity Resource.Power c)
      (Resource.total_quantity Resource.Bandwidth c);
    Format.printf "%a@?" Resource.pp
      (Resource.center ~name:"center(excerpt)"
         [ Resource.cluster ~nnodes:2 ~name:"cluster0" () ]);
    `Ok ()
  in
  cmd
    (Cmd.info "resource" ~doc:"Show the generalized resource model for a center.")
    Term.(const run $ nodes_arg $ clusters_arg)

(* --- flux schedule -------------------------------------------------------------- *)

let schedule_cmd =
  let jobs_arg = Arg.(value & opt int 200 & info [ "jobs" ] ~doc:"Workload size.") in
  let policies = [ "fcfs"; "easy"; "fcfs-moldable"; "priority"; "fairshare" ] in
  let policy_arg =
    Arg.(
      value
      & opt (enum (List.map (fun p -> (p, p)) policies)) "fcfs"
      & info [ "policy" ] ~doc:(String.concat " | " policies ^ "."))
  in
  let children_arg =
    Arg.(
      value & opt int 0
      & info [ "children" ] ~doc:"Split the workload across this many child instances.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let run nodes policy jobs children seed =
    checked
      [ positive "-N/--nodes" nodes; positive "--jobs" jobs; at_least "--children" 0 children ]
    @@ fun () ->
    let rng = Flux_util.Rng.create seed in
    let wl = Workload.batch_mix rng ~n:jobs ~max_nodes:(max 1 (nodes / 4)) () in
    let c = Center.create ~nodes ~policy () in
    if children <= 1 then Instance.submit_plan c.Center.root wl
    else begin
      let parts = Workload.split_round_robin children wl in
      List.iter
        (fun workload ->
          ignore
            (Instance.submit c.Center.root
               ~spec:(Jobspec.make ~nnodes:(nodes / children) ())
               ~payload:(Job.Child { policy; workload })
              : Job.t))
        parts
    end;
    Center.run c;
    let st = Instance.stats_recursive c.Center.root in
    Printf.printf
      "policy=%s jobs=%d children=%d: completed=%d failed=%d makespan=%.1fs mean_wait=%.1fs utilization=%.1f%%\n"
      policy jobs children st.Instance.st_completed st.Instance.st_failed
      st.Instance.st_makespan st.Instance.st_mean_wait
      (100.0 *. st.Instance.st_node_seconds
      /. (st.Instance.st_makespan *. float_of_int nodes));
    `Ok ()
  in
  cmd
    (Cmd.info "schedule"
       ~doc:"Run a synthetic workload through a (possibly hierarchical) Flux center.")
    Term.(const run $ nodes_arg $ policy_arg $ jobs_arg $ children_arg $ seed_arg)

(* --- flux kap --------------------------------------------------------------------- *)

(* The flags of the paper's KAP tester. *)
let kap_cmd =
  let int_arg names default doc = Arg.(value & opt int default & info names ~doc) in
  let ppn_arg = int_arg [ "ppn" ] 16 "Processes per node." in
  let producers_arg = int_arg [ "producers" ] 0 "Producer count (0 = all)." in
  let consumers_arg = int_arg [ "consumers" ] 0 "Consumer count (0 = all)." in
  let nputs_arg = int_arg [ "nputs" ] 1 "Objects put per producer." in
  let ngets_arg = int_arg [ "ngets" ] 1 "Objects read per consumer." in
  let vsize_arg = int_arg [ "vsize" ] 8 "Value size in bytes (at least 2)." in
  let redundant_arg =
    Arg.(value & flag & info [ "redundant" ] ~doc:"All producers write identical values.")
  in
  let dir_size_arg =
    int_arg [ "dir-size" ] 1 "Max objects per KVS directory (1 = one directory)."
  in
  let stride_arg = int_arg [ "stride" ] 1 "Consumer access stride." in
  let sync_arg =
    Arg.(
      value
      & opt (enum [ ("fence", Kap.Fence); ("commit", Kap.Commit_wait) ]) Kap.Fence
      & info [ "sync" ] ~doc:"fence | commit.")
  in
  let run nodes fanout ppn producers consumers nputs ngets vsize redundant dir_size stride sync =
    let total = nodes * ppn in
    checked
      (base_checks nodes fanout
      @ [
          positive "--ppn" ppn;
          in_range "--producers" ~lo:0 ~hi:total producers;
          in_range "--consumers" ~lo:0 ~hi:total consumers;
          at_least "--nputs" 0 nputs;
          at_least "--ngets" 0 ngets;
          at_least "--vsize" 2 vsize;
          at_least "--dir-size" 1 dir_size;
          at_least "--stride" 1 stride;
        ])
    @@ fun () ->
    let all n = if n = 0 then total else n in
    let cfg =
      {
        (Kap.fully_populated ~nodes) with
        Kap.procs_per_node = ppn;
        fanout;
        producers = all producers;
        consumers = all consumers;
        nputs;
        ngets;
        value_size = vsize;
        value_kind = (if redundant then Kap.Redundant else Kap.Unique);
        dir_layout = (if dir_size = 1 then Kap.Single_dir else Kap.Multi_dir dir_size);
        sync;
        access_stride = stride;
      }
    in
    let r = Kap.run cfg in
    Format.printf "%a@." Kap.pp_result r;
    `Ok ()
  in
  cmd
    (Cmd.info "kap" ~doc:"Run one KVS-Access-Patterns configuration.")
    Term.(
      const run $ nodes_arg $ fanout_arg $ ppn_arg $ producers_arg $ consumers_arg $ nputs_arg
      $ ngets_arg $ vsize_arg $ redundant_arg $ dir_size_arg $ stride_arg $ sync_arg)

(* --- flux exec --------------------------------------------------------------------- *)

let exec_cmd =
  let per_rank_arg = Arg.(value & opt int 1 & info [ "per-rank" ] ~doc:"Tasks per rank.") in
  let ranks_arg =
    Arg.(value & opt (list int) [ 1; 2; 3 ] & info [ "ranks" ] ~doc:"Target ranks.")
  in
  let secs_arg = Arg.(value & opt float 0.1 & info [ "secs" ] ~doc:"Per-task runtime.") in
  let run nodes fanout per_rank ranks secs =
    checked
      (base_checks nodes fanout
      @ [
          positive "--per-rank" per_rank;
          (if secs < 0.0 then Some (Printf.sprintf "--secs must be >= 0 (got %g)" secs)
           else None);
          (if ranks = [] then Some "--ranks must name at least one rank" else None);
          List.find_map (fun r -> in_range "--ranks" ~lo:0 ~hi:(nodes - 1) r) ranks;
        ])
    @@ fun () ->
    Flux_modules.Wexec.register_program "cli-task" (fun ctx ->
        Proc.sleep (Json.to_float (Json.member "secs" ctx.Flux_modules.Wexec.px_args));
        ctx.Flux_modules.Wexec.px_printf
          (Printf.sprintf "task %d/%d done on rank %d" ctx.Flux_modules.Wexec.px_global_index
             ctx.Flux_modules.Wexec.px_ntasks ctx.Flux_modules.Wexec.px_rank));
    with_session nodes fanout (fun eng sess ->
        ignore (Flux_modules.Wexec.load sess () : Flux_modules.Wexec.t array);
        run_to_completion eng (fun () ->
            let api = Api.connect sess ~rank:0 in
            match
              Flux_modules.Wexec.run api ~jobid:"cli-job" ~prog:"cli-task"
                ~args:(Json.obj [ ("secs", Json.float secs) ])
                ~per_rank ~ranks ()
            with
            | Ok c ->
              Printf.printf "job complete: %d tasks, %d failed (virtual time %.3fs)\n"
                c.Flux_modules.Wexec.c_ntasks c.Flux_modules.Wexec.c_failed (Engine.now eng);
              let kvs = Client.connect sess ~rank:0 in
              (match
                 Client.get kvs
                   ~key:
                     (Printf.sprintf "%s.%d-0.stdout"
                        (Flux_modules.Wexec.job_key "cli-job")
                        (List.hd ranks))
               with
              | Ok (Json.String out) -> Printf.printf "stdout of first task: %s" out
              | Ok _ | Error _ -> ());
              `Ok ()
            | Error e -> `Error (false, e)))
  in
  cmd
    (Cmd.info "exec" ~doc:"Bulk-launch tasks through wexec; stdout lands in the KVS.")
    Term.(const run $ nodes_arg $ fanout_arg $ per_rank_arg $ ranks_arg $ secs_arg)

(* --- flux barrier ------------------------------------------------------------------- *)

let barrier_cmd =
  let procs_arg = Arg.(value & opt int 64 & info [ "procs" ] ~doc:"Participants.") in
  let run nodes fanout procs =
    checked (base_checks nodes fanout @ [ positive "--procs" procs ]) @@ fun () ->
    with_session nodes fanout (fun eng sess ->
        let released = ref 0 in
        let t_done = ref 0.0 in
        for p = 0 to procs - 1 do
          ignore
            (Proc.spawn eng (fun () ->
                 let api = Api.connect sess ~rank:(p mod nodes) in
                 match Flux_modules.Barrier.enter api ~name:"cli-barrier" ~nprocs:procs with
                 | Ok () ->
                   incr released;
                   t_done := Engine.now eng
                 | Error e -> failwith e)
              : Proc.pid)
        done;
        Engine.run eng;
        Printf.printf "%d/%d processes released after %.1f us (virtual)\n" !released procs
          (1e6 *. !t_done));
    `Ok ()
  in
  cmd
    (Cmd.info "barrier" ~doc:"Time a collective barrier across the session.")
    Term.(const run $ nodes_arg $ fanout_arg $ procs_arg)

(* --- flux down ---------------------------------------------------------------------- *)

let down_cmd =
  let victim_arg = Arg.(value & pos 0 int 2 & info [] ~docv:"RANK" ~doc:"Rank to kill.") in
  let run nodes fanout victim =
    checked (base_checks nodes fanout @ [ in_range "RANK" ~lo:1 ~hi:(nodes - 1) victim ])
    @@ fun () ->
    let eng = Engine.create () in
    let sess = Session.create eng ~fanout ~size:nodes () in
    let hb = Flux_modules.Hb.load sess ~period:0.05 () in
    let live = Flux_modules.Live.load sess ~hb () in
    ignore
      (Engine.schedule eng ~delay:0.2 (fun () ->
           Printf.printf "t=0.20s: rank %d crashes silently\n" victim;
           Session.crash sess victim)
        : Engine.handle);
    ignore (Engine.schedule eng ~delay:1.5 (fun () -> Flux_modules.Hb.stop hb) : Engine.handle);
    Engine.run eng;
    Printf.printf "detected dead: %s\n"
      (if Session.is_down sess victim then "yes (missed hellos)" else "NO");
    Array.iteri
      (fun r t ->
        List.iter
          (fun d -> Printf.printf "rank %d declared rank %d down\n" r d)
          (Flux_modules.Live.declared_down t))
      live;
    let orphans =
      List.filter
        (fun r ->
          (not (Session.is_down sess r))
          && Flux_util.Treemath.parent ~k:fanout r = Some victim)
        (List.init nodes Fun.id)
    in
    List.iter
      (fun r ->
        match Session.tree_parent (Session.broker sess r) with
        | Some p -> Printf.printf "rank %d rewired to new parent %d\n" r p
        | None -> ())
      orphans;
    `Ok ()
  in
  cmd
    (Cmd.info "down"
       ~doc:"Kill a broker and watch liveness detection rewire the overlays.")
    Term.(const run $ nodes_arg $ fanout_arg $ victim_arg)

(* --- flux watch --------------------------------------------------------------------- *)

let watch_cmd =
  let key_arg = Arg.(value & pos 0 string "demo.key" & info [] ~docv:"KEY") in
  let run nodes fanout key =
    checked
      (base_checks nodes fanout
      @ [ (if key = "" then Some "KEY must be non-empty" else None) ])
    @@ fun () ->
    with_session nodes fanout (fun eng sess ->
        ignore
          (Proc.spawn eng (fun () ->
               let c = Client.connect sess ~rank:(nodes - 1) in
               (match
                  Client.watch c ~key (fun v ->
                      Printf.printf "t=%.3fs watch fired: %s = %s\n" (Engine.now eng) key
                        (match v with Some j -> Json.to_string j | None -> "(unset)"))
                with
               | Ok () -> ()
               | Error e -> failwith e);
               Proc.sleep 1.0)
            : Proc.pid);
        ignore
          (Proc.spawn eng (fun () ->
               let c = Client.connect sess ~rank:0 in
               Proc.sleep 0.2;
               List.iter
                 (fun v ->
                   (match Client.put c ~key (Json.int v) with Ok () -> () | Error e -> failwith e);
                   ignore (Client.commit c : (int, string) result);
                   Proc.sleep 0.2)
                 [ 1; 2; 3 ])
            : Proc.pid);
        Engine.run eng);
    `Ok ()
  in
  cmd
    (Cmd.info "watch" ~doc:"Watch a KVS key while another client commits changes.")
    Term.(const run $ nodes_arg $ fanout_arg $ key_arg)

(* --- flux volumes ------------------------------------------------------------------- *)

let volumes_cmd =
  let shards_arg = Arg.(value & opt int 4 & info [ "shards" ] ~doc:"KVS volume count.") in
  let run nodes shards =
    checked
      [ positive "-N/--nodes" nodes; in_range "--shards" ~lo:1 ~hi:(max 1 nodes) shards ]
    @@ fun () ->
    let eng = Engine.create () in
    let sess = Session.create eng ~rank_topology:Session.Direct ~size:nodes () in
    let vt = Flux_kvs.Volumes.load sess ~shards () in
    Printf.printf "distributed KVS: %d volumes, masters at ranks [%s]\n" shards
      (String.concat ";"
         (List.map string_of_int (List.init shards (Flux_kvs.Volumes.master_rank vt))));
    run_to_completion eng (fun () ->
        let c = Flux_kvs.Volumes.client vt ~rank:(nodes - 1) in
        for i = 0 to 11 do
          match Flux_kvs.Volumes.put c ~key:(Printf.sprintf "dir%d.k" i) (Json.int i) with
          | Ok () -> ()
          | Error e -> failwith e
        done;
        (match Flux_kvs.Volumes.commit c with
        | Ok v -> Printf.printf "committed 12 keys across volumes (max version %d)\n" v
        | Error e -> failwith e);
        for i = 0 to 11 do
          let key = Printf.sprintf "dir%d.k" i in
          match Flux_kvs.Volumes.get c ~key with
          | Ok v ->
            Printf.printf "  %s -> %s (volume %d)\n" key (Json.to_string v)
              (Flux_kvs.Volumes.volume_of_key vt key)
          | Error e -> failwith e
        done);
    `Ok ()
  in
  cmd
    (Cmd.info "volumes" ~doc:"Demonstrate the sharded, distributed-master KVS.")
    Term.(const run $ nodes_arg $ shards_arg)

(* --- flux trace --------------------------------------------------------------------- *)

let trace_cmd =
  let ppn_arg =
    Arg.(value & opt int 16 & info [ "ppn" ] ~docv:"PPN" ~doc:"Processes per node.")
  in
  let perfetto_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:"Write the span tree as Chrome/Perfetto trace-event JSON.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-csv" ] ~docv:"FILE"
          ~doc:"Write the metrics registry as a metric,rank,value CSV.")
  in
  let full_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"Dump the raw event stream, not just the summary.")
  in
  let run nodes fanout ppn perfetto metrics_csv full =
    checked (base_checks nodes fanout @ [ positive "--ppn" ppn ]) @@ fun () ->
    (* A traced put-fence-get KAP run: every process puts one object,
       joins the "kap-sync" fence, and reads a neighbour's object. *)
    let total = nodes * ppn in
    let cfg =
      {
        Kap.default with
        Kap.nodes;
        procs_per_node = ppn;
        producers = total;
        consumers = total;
        fanout;
        trace = true;
      }
    in
    let r = Kap.run cfg in
    let tr =
      match r.Kap.r_trace with Some tr -> tr | None -> failwith "internal: no tracer"
    in
    if full then print_string (Flux_trace.Export.to_text tr);
    print_string (Flux_trace.Export.summary tr);
    (match Flux_trace.Export.fence_critical_path tr ~name:"kap-sync" with
    | Ok fb ->
      Format.printf "@[<v>critical path of fence %S:@,%a@]@." fb.Flux_trace.Export.fb_name
        Flux_trace.Export.pp_fence_breakdown fb;
      Printf.printf "measured sync phase:       max %.6f s (mean %.6f s)\n"
        r.Kap.r_sync.Kap.ph_max r.Kap.r_sync.Kap.ph_mean
    | Error e -> Printf.printf "critical path: %s\n" e);
    (match perfetto with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc (Flux_trace.Export.to_perfetto tr);
      close_out oc;
      Printf.printf "wrote Perfetto trace to %s (%d events, %d dropped)\n" file
        (List.length (Flux_trace.Tracer.events tr))
        (Flux_trace.Tracer.dropped tr));
    (match (metrics_csv, r.Kap.r_metrics) with
    | Some file, Some m ->
      let oc = open_out file in
      output_string oc (Flux_trace.Metrics.to_csv m);
      close_out oc;
      Printf.printf "wrote metrics CSV to %s\n" file
    | _ -> ());
    `Ok ()
  in
  cmd
    (Cmd.info "trace"
       ~doc:
         "Run a traced put-fence-get workload, print the fence critical-path breakdown, \
          and optionally export Perfetto JSON and a metrics CSV.")
    Term.(const run $ nodes_arg $ fanout_arg $ ppn_arg $ perfetto_arg $ metrics_arg $ full_arg)

(* Every invariant harness in the registry is a subcommand too: its
   flags, checks and report live in its module (see [Harness.cmd]). *)
let main_cmd =
  let doc = "command-line access to the simulated Flux framework" in
  Cmd.group (Cmd.info "flux" ~version:"0.1.0" ~doc)
    ([
       ping_cmd; topo_cmd; kvs_cmd; resource_cmd; schedule_cmd; kap_cmd; exec_cmd;
       barrier_cmd; down_cmd; watch_cmd; volumes_cmd; trace_cmd;
     ]
    @ List.map Flux_harness.Harness.cmd Flux_harness.Registry.all)

let () = exit (Cmd.eval' main_cmd)
