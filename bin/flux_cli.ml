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
module Central = Flux_baseline.Central
module Kap = Flux_kap.Kap

open Cmdliner

let nodes_arg =
  Arg.(value & opt int 16 & info [ "N"; "nodes" ] ~docv:"NODES" ~doc:"Cluster size in nodes.")

let fanout_arg =
  Arg.(value & opt int 2 & info [ "k"; "fanout" ] ~docv:"K" ~doc:"CMB tree fan-out.")

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

let one_of name allowed v =
  if List.mem v allowed then None
  else
    Some (Printf.sprintf "%s must be one of %s (got %s)" name (String.concat "|" allowed) v)

let positive_f name v =
  if v <= 0.0 then Some (Printf.sprintf "%s must be positive (got %g)" name v) else None

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
  Cmd.v
    (Cmd.info "ping" ~doc:"Rank-addressed RPC over the ring overlay.")
    Term.(ret (const run $ nodes_arg $ fanout_arg $ rank_arg))

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
  Cmd.v
    (Cmd.info "topo" ~doc:"Print the overlay-network wire-up.")
    Term.(ret (const run $ nodes_arg $ fanout_arg))

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
  Cmd.v
    (Cmd.info "kvs" ~doc:"Put, commit and get through the distributed KVS.")
    Term.(ret (const run $ nodes_arg $ fanout_arg $ rank_arg $ puts_arg $ gets_arg))

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
  Cmd.v
    (Cmd.info "resource" ~doc:"Show the generalized resource model for a center.")
    Term.(ret (const run $ nodes_arg $ clusters_arg))

(* --- flux schedule -------------------------------------------------------------- *)

let schedule_cmd =
  let jobs_arg = Arg.(value & opt int 200 & info [ "jobs" ] ~doc:"Workload size.") in
  let policy_arg =
    Arg.(value & opt string "fcfs" & info [ "policy" ] ~doc:"fcfs | easy | fcfs-moldable.")
  in
  let children_arg =
    Arg.(
      value & opt int 0
      & info [ "children" ] ~doc:"Split the workload across this many child instances.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let run nodes policy jobs children seed =
    checked
      [
        positive "-N/--nodes" nodes;
        positive "--jobs" jobs;
        at_least "--children" 0 children;
        one_of "--policy" [ "fcfs"; "easy"; "fcfs-moldable"; "priority"; "fairshare" ] policy;
      ]
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
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Run a synthetic workload through a (possibly hierarchical) Flux center.")
    Term.(ret (const run $ nodes_arg $ policy_arg $ jobs_arg $ children_arg $ seed_arg))

(* --- flux kap --------------------------------------------------------------------- *)

(* The flags of the paper's KAP tester. *)
let kap_cmd =
  let int_arg names default doc = Arg.(value & opt int default & info names ~doc) in
  let ppn_arg = int_arg [ "ppn" ] 16 "Processes per node." in
  let producers_arg = int_arg [ "producers" ] 0 "Producer count (0 = all)." in
  let consumers_arg = int_arg [ "consumers" ] 0 "Consumer count (0 = all)." in
  let nputs_arg = int_arg [ "nputs" ] 1 "Objects put per producer." in
  let ngets_arg = int_arg [ "ngets" ] 1 "Objects read per consumer." in
  let vsize_arg = int_arg [ "vsize" ] 8 "Value size in bytes." in
  let redundant_arg =
    Arg.(value & flag & info [ "redundant" ] ~doc:"All producers write identical values.")
  in
  let dir_size_arg =
    int_arg [ "dir-size" ] 1 "Max objects per KVS directory (1 = one directory)."
  in
  let stride_arg = int_arg [ "stride" ] 1 "Consumer access stride." in
  let sync_arg = Arg.(value & opt string "fence" & info [ "sync" ] ~doc:"fence | commit.") in
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
          positive "--vsize" vsize;
          at_least "--dir-size" 1 dir_size;
          at_least "--stride" 1 stride;
          one_of "--sync" [ "fence"; "commit" ] sync;
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
        sync = (if sync = "fence" then Kap.Fence else Kap.Commit_wait);
        access_stride = stride;
      }
    in
    let r = Kap.run cfg in
    Format.printf "%a@." Kap.pp_result r;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "kap" ~doc:"Run one KVS-Access-Patterns configuration.")
    Term.(
      ret
        (const run $ nodes_arg $ fanout_arg $ ppn_arg $ producers_arg $ consumers_arg $ nputs_arg
       $ ngets_arg $ vsize_arg $ redundant_arg $ dir_size_arg $ stride_arg $ sync_arg))

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
    let eng = Engine.create () in
    let sess = Session.create eng ~fanout ~size:nodes () in
    ignore (Kvs.load sess () : Kvs.t array);
    ignore (Flux_modules.Barrier.load sess () : Flux_modules.Barrier.t array);
    ignore (Flux_modules.Wexec.load sess () : Flux_modules.Wexec.t array);
    let outcome =
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
                 ~key:(Printf.sprintf "lwj.cli-job.%d-0.stdout" (List.hd ranks))
             with
            | Ok (Json.String out) -> Printf.printf "stdout of first task: %s" out
            | Ok _ | Error _ -> ());
            `Ok ()
          | Error e -> `Error (false, e))
    in
    outcome
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Bulk-launch tasks through wexec; stdout lands in the KVS.")
    Term.(ret (const run $ nodes_arg $ fanout_arg $ per_rank_arg $ ranks_arg $ secs_arg))

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
  Cmd.v
    (Cmd.info "barrier" ~doc:"Time a collective barrier across the session.")
    Term.(ret (const run $ nodes_arg $ fanout_arg $ procs_arg))

(* --- flux down ---------------------------------------------------------------------- *)

let down_cmd =
  let victim_arg = Arg.(value & pos 0 int 2 & info [] ~docv:"RANK" ~doc:"Rank to kill.") in
  let run nodes fanout victim =
    checked (base_checks nodes fanout) @@ fun () ->
    if victim <= 0 || victim >= nodes then
      `Error (true, Printf.sprintf "RANK must be an interior rank in [1,%d] (got %d)" (nodes - 1) victim)
    else begin
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
    end
  in
  Cmd.v
    (Cmd.info "down"
       ~doc:"Kill a broker and watch liveness detection rewire the overlays.")
    Term.(ret (const run $ nodes_arg $ fanout_arg $ victim_arg))

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
          (Proc.spawn eng ~name:"watcher" (fun () ->
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
          (Proc.spawn eng ~name:"writer" (fun () ->
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
  Cmd.v
    (Cmd.info "watch" ~doc:"Watch a KVS key while another client commits changes.")
    Term.(ret (const run $ nodes_arg $ fanout_arg $ key_arg))

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
  Cmd.v
    (Cmd.info "volumes" ~doc:"Demonstrate the sharded, distributed-master KVS.")
    Term.(ret (const run $ nodes_arg $ shards_arg))

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
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a traced put-fence-get workload, print the fence critical-path breakdown, \
          and optionally export Perfetto JSON and a metrics CSV.")
    Term.(
      ret (const run $ nodes_arg $ fanout_arg $ ppn_arg $ perfetto_arg $ metrics_arg $ full_arg))

(* --- flux ckpt ----------------------------------------------------------- *)

let ckpt_cmd =
  let module Ckpt = Flux_harness.Ckpt in
  let ppn_arg =
    Arg.(value & opt int 1 & info [ "ppn" ] ~docv:"PPN" ~doc:"Tasks per worker node.")
  in
  let epochs_arg =
    Arg.(
      value & opt int 4
      & info [ "epochs" ] ~docv:"EPOCHS" ~doc:"Checkpoint epochs the job runs through.")
  in
  let interval_arg =
    Arg.(
      value & opt int 2
      & info [ "interval" ] ~docv:"KEYS"
          ~doc:"Work between checkpoints: keys each task writes per epoch.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Kill-schedule seed.")
  in
  let kill_arg =
    Arg.(
      value & opt string "node"
      & info [ "kill" ] ~docv:"KIND"
          ~doc:"Kill schedule: node (worker mid-job), master (KVS master mid-snapshot), \
                window (worker between checkpoint and fence), or none (fault-free).")
  in
  let run nodes fanout ppn epochs interval seed kill =
    (* Rank 0 (wexec master), the driver and the capture rank are never
       killable, so a meaningful schedule needs at least one worker rank
       strictly between them: 6 nodes. *)
    checked
      [
        at_least "-N/--nodes" 6 nodes;
        at_least "-k/--fanout" 2 fanout;
        positive "--ppn" ppn;
        positive "--epochs" epochs;
        positive "--interval" interval;
        positive "--seed" seed;
        one_of "--kill" [ "node"; "master"; "window"; "none" ] kill;
      ]
    @@ fun () ->
    let kill =
      match kill with
      | "node" -> Some Ckpt.Node_mid_job
      | "master" -> Some Ckpt.Master_mid_snapshot
      | "window" -> Some Ckpt.Between_ckpt_and_fence
      | _ -> None
    in
    let workers = List.init (min 4 (nodes - 5)) (fun i -> i + 2) in
    let r =
      Ckpt.run
        {
          Ckpt.default with
          Ckpt.size = nodes;
          fanout;
          kill;
          workers;
          per_rank = ppn;
          epochs;
          keys_per_epoch = interval;
          seed;
        }
    in
    Format.printf "%a@." Ckpt.pp_report r;
    if r.Ckpt.r_violations = [] then `Ok ()
    else `Error (false, "checkpoint schedule ended with violations")
  in
  Cmd.v
    (Cmd.info "ckpt"
       ~doc:
         "Run a checkpointing job under a seeded kill schedule and report recovery \
          behaviour (attempts, resume points, snapshot size).")
    Term.(
      ret
        (const run $ nodes_arg $ fanout_arg $ ppn_arg $ epochs_arg $ interval_arg $ seed_arg
       $ kill_arg))

(* --- flux sched ---------------------------------------------------------- *)

let sched_cmd =
  let module Sched = Flux_harness.Sched in
  let depth_arg =
    Arg.(
      value & opt int 2
      & info [ "depth" ] ~docv:"DEPTH"
          ~doc:"Levels of nested child instances (0 = one flat instance).")
  in
  let children_arg =
    Arg.(
      value & opt int 2
      & info [ "children" ] ~docv:"C" ~doc:"Instance-tree fan-out per level.")
  in
  let tasks_arg =
    Arg.(value & opt int 200 & info [ "tasks" ] ~docv:"N" ~doc:"Pilot tasks to submit.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")
  in
  let policy_arg =
    Arg.(
      value & opt string "fcfs"
      & info [ "policy" ] ~docv:"POLICY" ~doc:"Scheduling policy at every level.")
  in
  let central_arg =
    Arg.(
      value & flag
      & info [ "central" ]
          ~doc:"Also run the centralized single-controller baseline for comparison.")
  in
  let kill_arg =
    Arg.(
      value & flag
      & info [ "kill-leaf" ]
          ~doc:
            "Kill a worker rank of the first leaf instance mid-batch; surviving \
             sibling leaves drain the backlog via requeues.")
  in
  let run nodes fanout depth children tasks seed policy central kill_leaf =
    let leaves = int_of_float (float_of_int children ** float_of_int depth) in
    checked
      [
        at_least "-N/--nodes" 2 nodes;
        at_least "-k/--fanout" 2 fanout;
        in_range "--depth" ~lo:0 ~hi:4 depth;
        at_least "--children" 2 children;
        positive "--tasks" tasks;
        positive "--seed" seed;
        (if depth > 0 && nodes / leaves < 1 then
           Some
             (Printf.sprintf "--children^--depth (%d leaves) exceeds %d nodes" leaves nodes)
         else None);
      ]
    @@ fun () ->
    let cfg =
      { Sched.default with
        Sched.nodes;
        fanout;
        depth;
        children;
        tasks;
        seed;
        policy;
        kill_leaf
      }
    in
    let r = Sched.run cfg in
    Format.printf "%a@." Sched.pp_report r;
    if central then begin
      let c = Sched.run_central cfg in
      Format.printf "%a@." Sched.pp_central c;
      if c.Sched.c_jobs_per_s > 0.0 then
        Format.printf "hierarchy/central throughput: %.2fx@."
          (r.Sched.r_jobs_per_s /. c.Sched.c_jobs_per_s)
    end;
    if r.Sched.r_violations = [] then `Ok ()
    else `Error (false, "scheduling run ended with accounting violations")
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:
         "Run the pilot-style many-task scheduling ablation: a hierarchy of nested \
          instances vs the centralized baseline, with per-level hop latency from the \
          trace span chain.")
    Term.(
      ret
        (const run $ nodes_arg $ fanout_arg $ depth_arg $ children_arg $ tasks_arg
       $ seed_arg $ policy_arg $ central_arg $ kill_arg))

(* --- flux telem ---------------------------------------------------------- *)

let telem_cmd =
  let module Telem = Flux_harness.Telem in
  let module Series = Flux_trace.Series in
  let module Flight = Flux_trace.Flight in
  let module Detect = Flux_trace.Detect in
  let interval_arg =
    Arg.(
      value & opt float 0.05
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Rollup epoch length in sim-seconds.")
  in
  let epochs_arg =
    Arg.(value & opt int 12 & info [ "epochs" ] ~docv:"EPOCHS" ~doc:"Rollup epochs to run.")
  in
  let window_arg =
    Arg.(
      value & opt int 32
      & info [ "window" ] ~docv:"W"
          ~doc:"Series ring capacity and trend-detector window, in epochs.")
  in
  let ppn_arg =
    Arg.(
      value & opt int 4
      & info [ "ppn" ] ~docv:"PPN" ~doc:"Work items per rank per epoch (the sampled load).")
  in
  let fault_arg =
    Arg.(
      value & opt string "straggler"
      & info [ "fault" ] ~docv:"KIND"
          ~doc:
            "Injected fault: straggler (one slow rank), kill (mark_down mid-run), silent \
             (telemetry agent dies, rank stays up), growth (queue gauge ramp), or none.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")
  in
  let csv_arg =
    Arg.(
      value & flag
      & info [ "csv" ] ~doc:"Print the rollup series as CSV instead of the top-style table.")
  in
  let flight_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "flight-out" ] ~docv:"FILE"
          ~doc:"Write the first flight-recorder dump as Perfetto trace-event JSON.")
  in
  let run nodes fanout interval epochs window ppn fault seed csv flight_out =
    checked
      [
        at_least "-N/--nodes" 4 nodes;
        at_least "-k/--fanout" 2 fanout;
        positive_f "--interval" interval;
        at_least "--epochs" 4 epochs;
        positive "--window" window;
        positive "--ppn" ppn;
        positive "--seed" seed;
        one_of "--fault" [ "straggler"; "kill"; "silent"; "growth"; "none" ] fault;
      ]
    @@ fun () ->
    let base =
      match fault with
      | "kill" -> Telem.kill_case
      | "silent" -> Telem.silent_case
      | "growth" -> Telem.growth_case
      | "none" -> { Telem.default with Telem.straggler = None }
      | _ -> Telem.straggler_case
    in
    let adjust r = if r >= nodes then (nodes / 2) + 1 else r in
    let cfg =
      {
        base with
        Telem.seed;
        size = nodes;
        fanout;
        interval;
        epochs;
        window;
        work_per_epoch = ppn;
        straggler = Option.map (fun (r, f) -> (adjust r, f)) base.Telem.straggler;
        kill = Option.map adjust base.Telem.kill;
        mute = Option.map adjust base.Telem.mute;
      }
    in
    let r = Telem.run cfg in
    Format.printf "%a@." Telem.pp_report r;
    List.iter
      (fun a -> Format.printf "  %a@." Detect.pp_alert a)
      r.Telem.t_alerts;
    if csv then print_string (Series.to_csv r.Telem.t_series)
    else print_string (Series.render_top r.Telem.t_series);
    (match flight_out with
    | Some path -> (
      match Flight.dumps r.Telem.t_flight with
      | [] -> Printf.printf "no flight dumps taken; %s not written\n" path
      | d :: _ ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Flight.dump_to_perfetto d));
        Printf.printf "flight dump (rank %d, %s) written to %s\n" d.Flight.d_rank
          d.Flight.d_reason path)
    | None -> ());
    if r.Telem.t_violations = [] then `Ok ()
    else `Error (false, "telemetry run ended with violations")
  in
  Cmd.v
    (Cmd.info "telem"
       ~doc:
         "Run the live telemetry plane over a synthetic workload with an injected fault \
          and show the rollup series, alerts, and flight-recorder activity.")
    Term.(
      ret
        (const run $ nodes_arg $ fanout_arg $ interval_arg $ epochs_arg $ window_arg
       $ ppn_arg $ fault_arg $ seed_arg $ csv_arg $ flight_out_arg))

(* --- flux elastic --------------------------------------------------------- *)

let elastic_cmd =
  let module E = Flux_harness.Elastic in
  let module Ctl = Flux_core.Elastic in
  let mode_arg =
    Arg.(
      value & opt string "all"
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Protection regime: unprotected (no admission bound, no controller), \
             protected (static submission shedding), elastic (shedding plus the \
             closed-loop controller), or all (run the three-way comparison).")
  in
  let child_arg =
    Arg.(
      value & opt int 4
      & info [ "child-nodes" ] ~docv:"N" ~doc:"Worker child's initial pool size.")
  in
  let duration_arg =
    Arg.(
      value & opt float 6.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Arrival window, sim-seconds.")
  in
  let drain_arg =
    Arg.(
      value & opt float 2.0
      & info [ "drain" ] ~docv:"SECONDS"
          ~doc:"Controller/telemetry run-on after arrivals stop.")
  in
  let cap_arg =
    Arg.(
      value & opt int 40
      & info [ "cap" ] ~docv:"JOBS"
          ~doc:"Queue cap for submission shedding (protected and elastic modes).")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")
  in
  let silence_arg =
    Arg.(
      value & opt (some float) None
      & info [ "silence-at" ] ~docv:"SECONDS"
          ~doc:
            "Stop the telemetry plane at this sim time — exercises the \
             telemetry-silent fallback (elastic mode).")
  in
  let trajectory_arg =
    Arg.(
      value & flag
      & info [ "trajectory" ]
          ~doc:"Print the sampled (time, child nodes) trajectory for elastic runs.")
  in
  let run nodes fanout mode child_nodes duration drain cap seed silence_at trajectory =
    checked
      [
        at_least "-N/--nodes" 8 nodes;
        at_least "-k/--fanout" 2 fanout;
        positive "--child-nodes" child_nodes;
        positive_f "--duration" duration;
        positive "--cap" cap;
        positive "--seed" seed;
        one_of "--mode" [ "unprotected"; "protected"; "elastic"; "all" ] mode;
      ]
    @@ fun () ->
    let base =
      {
        E.default with
        E.seed;
        size = nodes;
        fanout;
        child_nodes;
        duration;
        drain;
        queue_cap = cap;
        silence_at;
      }
    in
    let one m =
      let r = E.run { base with E.mode = m } in
      Format.printf "%a@." E.pp_report r;
      if trajectory && m = E.Elastic then
        List.iter
          (fun (t, n) -> Printf.printf "  t=%6.2f  nodes=%d\n" t n)
          r.E.e_trajectory;
      r
    in
    let reports =
      match mode with
      | "unprotected" -> [ one E.Unprotected ]
      | "protected" -> [ one E.Protected ]
      | "elastic" -> [ one E.Elastic ]
      | _ ->
        let u = one E.Unprotected in
        let p = one E.Protected in
        let e = one E.Elastic in
        if p.E.e_goodput > 0.0 then
          Printf.printf "recovery ratio (elastic/protected goodput): %.2fx\n"
            (e.E.e_goodput /. p.E.e_goodput);
        [ u; p; e ]
    in
    let violations = List.concat_map (fun r -> r.E.e_violations) reports in
    if violations = [] then `Ok ()
    else `Error (false, "elasticity run ended with violations")
  in
  Cmd.v
    (Cmd.info "elastic"
       ~doc:
         "Run the closed-loop elasticity soak: a bursty task stream against a child \
          instance, unprotected vs statically protected vs autoscaled by the \
          telemetry-driven controller.")
    Term.(
      ret
        (const run $ nodes_arg $ fanout_arg $ mode_arg $ child_arg $ duration_arg
       $ drain_arg $ cap_arg $ seed_arg $ silence_arg $ trajectory_arg))

let main_cmd =
  let doc = "command-line access to the simulated Flux framework" in
  Cmd.group (Cmd.info "flux" ~version:"0.1.0" ~doc)
    [
      ping_cmd; topo_cmd; kvs_cmd; resource_cmd; schedule_cmd; kap_cmd; exec_cmd;
      barrier_cmd; down_cmd; watch_cmd; volumes_cmd; trace_cmd; ckpt_cmd; sched_cmd;
      telem_cmd; elastic_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
