(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section V) plus the ablations called out in DESIGN.md.

   Usage: main.exe [experiment...] where experiment is one of
     table1 fig2 fig3 fig4a fig4b sweep model ablate-sched ablate-fanout
     ablate-shards faults
   or the name of a harness in Flux_harness.Registry (chaos overload shard
   ckpt sched telem elastic; "harnesses" runs them all). No arguments runs
   everything. Scales can be reduced with BENCH_FAST=1 for a quick pass. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Net = Flux_sim.Net
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Kap = Flux_kap.Kap
module Harness = Flux_harness.Harness
module Registry = Flux_harness.Registry
module Rng = Flux_util.Rng
module Center = Flux_core.Center
module Instance = Flux_core.Instance
module Job = Flux_core.Job
module Jobspec = Flux_core.Jobspec
module Workload = Flux_core.Workload
module Export = Flux_trace.Export

let fast = Sys.getenv_opt "BENCH_FAST" <> None

(* Machine-readable one-line summary of a fault experiment: the
   lifecycle/accounting counters as JSON, for downstream scraping. *)
let fault_summary ~experiment sess ?(extra = []) () =
  let rpc = Session.rpc_net_stats sess in
  let ev = Session.event_net_stats sess in
  let ring = Session.ring_net_stats sess in
  Printf.printf "  summary %s\n%!"
    (Json.to_string
       (Json.obj
          ([
             ("experiment", Json.string experiment);
             ("rpc_timeouts", Json.int (Session.rpc_timeouts sess));
             ("rpc_retries", Json.int (Session.rpc_retries sess));
             ( "dead_letters",
               Json.int (rpc.Net.dead_letters + ev.Net.dead_letters + ring.Net.dead_letters) );
             ("dropped", Json.int (rpc.Net.dropped + ev.Net.dropped + ring.Net.dropped));
           ]
          @ extra)))

let node_scales = if fast then [ 16; 32; 64 ] else [ 64; 128; 256; 512 ]
let vsizes = if fast then [ 8; 512; 8192 ] else [ 8; 32; 128; 512; 2048; 8192; 32768 ]

let header title = Printf.printf "\n=== %s ===\n%!" title

(* --- Table I: the comms-module inventory, exercised ------------------- *)

(* Table I modules whose probe failed; a failed probe fails the run. *)
let table1_failures = ref 0

let table1 () =
  header "Table I: prototyped comms modules (all loaded and exercised in one session)";
  let eng = Engine.create () in
  let size = 16 in
  let sess = Session.create eng ~size () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Flux_modules.Barrier.load sess () : Flux_modules.Barrier.t array);
  ignore (Flux_modules.Wexec.load sess () : Flux_modules.Wexec.t array);
  ignore (Flux_modules.Group.load sess () : Flux_modules.Group.t array);
  ignore (Flux_modules.Resvc.load sess () : Flux_modules.Resvc.t array);
  let logm = Flux_modules.Log_mod.load sess () in
  let hb = Flux_modules.Hb.load sess ~period:0.05 () in
  ignore (Flux_modules.Live.load sess ~hb () : Flux_modules.Live.t array);
  let mon = Flux_modules.Mon.load sess ~hb () in
  Flux_modules.Mon.register_sampler "load" (fun ~rank ~epoch:_ -> float_of_int rank);
  Flux_modules.Wexec.register_program "noop" (fun ctx -> ctx.Flux_modules.Wexec.px_printf "ok");
  let results : (string * (string, string) result) list ref = ref [] in
  let probe name r = results := (name, r) :: !results in
  let check name ok detail = probe name (if ok then Ok detail else Error detail) in
  ignore
    (Proc.spawn eng (fun () ->
         let api = Api.connect sess ~rank:13 in
         let c = Client.connect sess ~rank:13 in
         (* hb + mon *)
         Result.iter_error
           (fun e -> probe "mon" (Error ("activate: " ^ e)))
           (Flux_modules.Mon.activate api ~script:"load");
         Proc.sleep 0.4;
         let epoch = Flux_modules.Hb.epoch hb.(13) in
         check "hb" (epoch > 0) (Printf.sprintf "heartbeat epoch %d multicast to all %d ranks" epoch size);
         (match Flux_modules.Mon.latest_aggregate mon.(0) with
         | Some (_, s) ->
           check "mon" (s.Flux_modules.Mon.s_count = size)
             (Printf.sprintf "sampled %d ranks, min/max/sum = %g/%g/%g -> stored in KVS"
                s.Flux_modules.Mon.s_count s.Flux_modules.Mon.s_min s.Flux_modules.Mon.s_max
                s.Flux_modules.Mon.s_sum)
         | None -> check "mon" false "no aggregate");
         (* log *)
         Flux_modules.Log_mod.log api ~level:Flux_modules.Log_mod.Warn "bench message";
         Flux_modules.Log_mod.log api ~level:Flux_modules.Log_mod.Warn "bench message";
         Proc.sleep 0.05;
         let logged = List.length (Flux_modules.Log_mod.root_log logm.(0)) in
         check "log" (logged > 0) (Printf.sprintf "root log holds %d reduced entries" logged);
         (* group + barrier *)
         probe "group"
           (Flux_modules.Group.join api ~group:"g" ~tag:"bench"
           |> Result.map (fun _ -> "membership tracked at session root"));
         probe "barrier"
           (Flux_modules.Barrier.enter api ~name:"table1" ~nprocs:1
           |> Result.map (fun () -> "entered and released through the tree"));
         (* kvs *)
         probe "kvs"
           (Result.bind (Client.put c ~key:"bench.k" (Json.int 1)) (fun () -> Client.commit c)
           |> Result.map (Printf.sprintf "put+commit -> version %d, setroot multicast"));
         (* wexec *)
         probe "wexec"
           (Flux_modules.Wexec.run api ~jobid:"t1-job" ~prog:"noop" ~ranks:[ 1; 2; 3 ] ()
           |> Result.map (fun comp ->
                  Printf.sprintf "bulk-launched %d tasks, stdout captured in KVS"
                    comp.Flux_modules.Wexec.c_ntasks));
         (* resvc *)
         probe "resvc"
           (Flux_modules.Resvc.alloc api ~jobid:"t1-alloc" ~nnodes:4
           |> Result.map (fun ranks ->
                  Printf.sprintf "allocated nodes [%s] from the KVS-enumerated pool"
                    (String.concat ";" (List.map string_of_int ranks))));
         (* live: crash a leaf and wait for detection *)
         Session.crash sess 9;
         Proc.sleep 0.4;
         check "live" (Session.is_down sess 9)
           "rank 9 declared dead by its parent after missed hellos, overlays rewired";
         Flux_modules.Hb.stop hb)
      : Proc.pid);
  Engine.run eng;
  List.iter
    (fun (m, r) ->
      match r with
      | Ok d -> Printf.printf "  %-8s %s\n" m d
      | Error e ->
        incr table1_failures;
        Printf.printf "  %-8s FAILED: %s\n" m e)
    (List.rev !results);
  (* A probe that never returns leaves the others unrun. *)
  if List.length !results < 9 then begin
    incr table1_failures;
    Printf.printf "  the probes stopped after %d of 9 modules\n" (List.length !results)
  end

(* --- Figure 2: producer (kvs_put) max latency --------------------------- *)

let fig2 () =
  header "Figure 2: producer-phase max latency (s) vs producers, by value size";
  Printf.printf "%-10s %-8s" "producers" "nodes";
  List.iter (fun v -> Printf.printf " vsize-%-8d" v) vsizes;
  print_newline ();
  List.iter
    (fun nodes ->
      let cfg = Kap.fully_populated ~nodes in
      Printf.printf "%-10d %-8d" (nodes * 16) nodes;
      List.iter
        (fun vsize ->
          let r = Kap.run { cfg with Kap.value_size = vsize } in
          Printf.printf " %-14.6f" r.Kap.r_producer.Kap.ph_max)
        vsizes;
      Printf.printf "\n%!")
    node_scales

(* --- Figure 3: fence max latency, unique vs redundant -------------------- *)

let fig3 () =
  header "Figure 3: synchronization (kvs_fence) max latency (s) vs producers";
  List.iter
    (fun kind ->
      let label, prefix =
        match kind with
        | Kap.Unique -> ("unique values", "vsize-")
        | Kap.Redundant -> ("redundant values", "red-vs-")
      in
      Printf.printf "-- %s --\n" label;
      Printf.printf "%-10s %-8s" "producers" "nodes";
      List.iter (fun v -> Printf.printf " %s%-8d" prefix v) vsizes;
      print_newline ();
      List.iter
        (fun nodes ->
          let cfg = Kap.fully_populated ~nodes in
          Printf.printf "%-10d %-8d" (nodes * 16) nodes;
          List.iter
            (fun vsize ->
              let r = Kap.run { cfg with Kap.value_size = vsize; value_kind = kind } in
              Printf.printf " %-14.6f" r.Kap.r_sync.Kap.ph_max)
            vsizes;
          Printf.printf "\n%!")
        node_scales)
    [ Kap.Unique; Kap.Redundant ]

(* --- Figure 4: consumer (kvs_get) max latency ------------------------------ *)

let fig4 layout label =
  header label;
  let accesses = [ 1; 4; 16 ] in
  Printf.printf "%-10s %-8s" "consumers" "nodes";
  List.iter (fun a -> Printf.printf " access-%-7d" a) accesses;
  Printf.printf " loads\n";
  List.iter
    (fun nodes ->
      let cfg = Kap.fully_populated ~nodes in
      Printf.printf "%-10d %-8d" (nodes * 16) nodes;
      let loads = ref 0 in
      List.iter
        (fun ngets ->
          let r = Kap.run { cfg with Kap.ngets; dir_layout = layout; access_stride = 7 } in
          loads := r.Kap.r_loads_issued;
          Printf.printf " %-14.6f" r.Kap.r_consumer.Kap.ph_max)
        accesses;
      Printf.printf " %d\n%!" !loads)
    node_scales

let fig4a () =
  fig4 Kap.Single_dir
    "Figure 4a: consumer max latency (s), all objects in a single KVS directory"

let fig4b () =
  fig4 (Kap.Multi_dir 128)
    "Figure 4b: consumer max latency (s), directories limited to 128 objects"

(* --- Asymmetric role sweeps (Section V.A method) -------------------------------- *)

let sweep () =
  header
    "Role sweep: varying producer or consumer count while the other stays at all cores";
  let nodes = if fast then 32 else 128 in
  let total = nodes * 16 in
  let fractions = [ 8; 4; 2; 1 ] in
  Printf.printf "(%d nodes, %d procs, vsize 512, unique values, single dir)\n" nodes total;
  Printf.printf "-- producers varied, consumers = %d --\n" total;
  Printf.printf "%-10s %-14s %-14s %-14s\n" "producers" "put_max(s)" "fence_max(s)" "get_max(s)";
  List.iter
    (fun frac ->
      let cfg =
        { (Kap.fully_populated ~nodes) with Kap.value_size = 512; producers = total / frac }
      in
      let r = Kap.run cfg in
      Printf.printf "%-10d %-14.6f %-14.6f %-14.6f\n%!" (total / frac)
        r.Kap.r_producer.Kap.ph_max r.Kap.r_sync.Kap.ph_max r.Kap.r_consumer.Kap.ph_max)
    fractions;
  Printf.printf "-- consumers varied, producers = %d --\n" total;
  Printf.printf "%-10s %-14s %-14s %-14s\n" "consumers" "put_max(s)" "fence_max(s)" "get_max(s)";
  List.iter
    (fun frac ->
      let cfg =
        { (Kap.fully_populated ~nodes) with Kap.value_size = 512; consumers = total / frac }
      in
      let r = Kap.run cfg in
      Printf.printf "%-10d %-14.6f %-14.6f %-14.6f\n%!" (total / frac)
        r.Kap.r_producer.Kap.ph_max r.Kap.r_sync.Kap.ph_max r.Kap.r_consumer.Kap.ph_max)
    fractions

(* --- The analytic model: log2(C) x T(G) -------------------------------------- *)

let model () =
  header "Consumer-latency model: measured vs log2(nodes) x T(G) (Section V.B)";
  Printf.printf "%-8s %-10s %-12s %-12s %-8s\n" "nodes" "G" "measured(s)" "model(s)" "ratio";
  let netc = Net.default_config in
  List.iter
    (fun nodes ->
      let cfg = Kap.fully_populated ~nodes in
      let r = Kap.run { cfg with Kap.ngets = 1 } in
      let g = r.Kap.r_total_objects in
      (* One 8-byte object inlined in a directory entry is ~26 bytes of
         serialized JSON; T(G) is one hop's transfer of the directory. *)
      let dir_bytes = float_of_int g *. 26.0 in
      let t_g =
        netc.Net.link_latency
        +. (dir_bytes /. netc.Net.bandwidth)
        +. netc.Net.host_cpu_per_msg
        +. (dir_bytes *. netc.Net.host_cpu_per_byte)
      in
      let depth = Float.log2 (float_of_int nodes) in
      let predicted = depth *. t_g in
      Printf.printf "%-8d %-10d %-12.6f %-12.6f %-8.2f\n%!" nodes g
        r.Kap.r_consumer.Kap.ph_max predicted
        (r.Kap.r_consumer.Kap.ph_max /. predicted))
    node_scales;
  Printf.printf
    "(ratios near 1: the replication wave down the slave-cache tree dominates, as the paper models)\n"

(* --- Ablation: hierarchical vs centralized scheduling ------------------------ *)

let ablate_sched () =
  header "Ablation: scheduler parallelism — centralized controller vs Flux hierarchy";
  let nodes = if fast then 32 else 64 in
  let n_jobs = if fast then 600 else 2000 in
  let mk_wl () =
    List.map
      (fun (s : Job.submission) ->
        match s.Job.sub_payload with
        | Job.Sleep d -> { s with Job.sub_payload = Job.Sleep (Float.max 0.05 (d /. 10.0)) }
        | _ -> s)
      (Workload.uq_ensemble (Rng.create 42) ~n:n_jobs ~mean_duration:2.0 ())
  in
  Printf.printf "%d one-node ensemble jobs on %d nodes (10 ms controller cost per start)\n"
    n_jobs nodes;
  Printf.printf "%-22s %-10s %-10s %-10s\n" "configuration" "makespan" "jobs/s" "mean_wait";
  (* The centralized controller: one flat root instance deciding for
     every node and the whole queue on one scheduler CPU. *)
  let flat = Center.create ~nodes () in
  Instance.submit_plan flat.Center.root (mk_wl ());
  Center.run flat;
  let cs = Instance.stats flat.Center.root in
  Printf.printf "%-22s %-10.1f %-10.1f %-10.1f\n%!" "centralized (1 ctrl)" cs.Instance.st_makespan
    (float_of_int cs.Instance.st_completed /. cs.Instance.st_makespan)
    cs.Instance.st_mean_wait;
  List.iter
    (fun k ->
      let c = Center.create ~nodes () in
      let parts = Workload.split_round_robin k (mk_wl ()) in
      List.iter
        (fun workload ->
          ignore
            (Instance.submit c.Center.root
               ~spec:(Jobspec.make ~nnodes:(nodes / k) ())
               ~payload:(Job.Child { policy = "fcfs"; workload })
              : Job.t))
        parts;
      Center.run c;
      let fs = Instance.stats_recursive c.Center.root in
      Printf.printf "%-22s %-10.1f %-10.1f %-10.1f\n%!"
        (Printf.sprintf "flux 2-level (%d kids)" k)
        fs.Instance.st_makespan
        (float_of_int (fs.Instance.st_completed - k) /. fs.Instance.st_makespan)
        fs.Instance.st_mean_wait)
    [ 2; 4; 8; 16 ]

(* --- Ablation: RPC-tree fan-out ------------------------------------------------ *)

let ablate_fanout () =
  header "Ablation: CMB tree fan-out vs fence and get latency";
  let nodes = if fast then 64 else 256 in
  Printf.printf "(%d nodes, %d procs, vsize 512, unique values)\n" nodes (nodes * 16);
  Printf.printf "%-8s %-12s %-12s %-12s\n" "fanout" "fence(s)" "get(s)" "tree-depth";
  List.iter
    (fun k ->
      let cfg = { (Kap.fully_populated ~nodes) with Kap.value_size = 512; fanout = k } in
      let r = Kap.run cfg in
      Printf.printf "%-8d %-12.6f %-12.6f %-12d\n%!" k r.Kap.r_sync.Kap.ph_max
        r.Kap.r_consumer.Kap.ph_max
        (Flux_util.Treemath.tree_height ~k ~size:nodes))
    [ 2; 4; 8; 16 ]

(* --- Ablation: distributed KVS master (the paper's future work) ---------------- *)

let ablate_shards () =
  header "Future work implemented: distributing the KVS master (sharded volumes)";
  let nodes = if fast then 32 else 128 in
  let ppn = 16 in
  let nputs = 4 in
  let total = nodes * ppn in
  Printf.printf
    "%d procs on %d nodes; each puts %d unique 512 B values (hashed across volumes) then joins one fence\n"
    total nodes nputs;
  Printf.printf "%-8s %-14s %-14s %-16s\n" "shards" "fence_max(s)" "get_max(s)" "max master bytes";
  List.iter
    (fun shards ->
      let eng = Engine.create () in
      let sess = Session.create eng ~rank_topology:Session.Direct ~size:nodes () in
      let vt = Flux_kvs.Volumes.load sess ~shards () in
      let fence_s = Flux_util.Stats.create () in
      let get_s = Flux_util.Stats.create () in
      let remaining = ref total in
      for p = 0 to total - 1 do
        let node = p mod nodes in
        ignore
          (Proc.spawn eng (fun () ->
               let c = Flux_kvs.Volumes.client vt ~rank:node in
               let expect label = function
                 | Ok v -> v
                 | Error e -> failwith (label ^ ": " ^ e)
               in
               for j = 0 to nputs - 1 do
                 let idx = (p * nputs) + j in
                 expect "put"
                   (Flux_kvs.Volumes.put c
                      ~key:(Printf.sprintf "d%d.k%d" (idx mod 997) idx)
                      (Json.pad_unique 512 idx))
               done;
               let t0 = Engine.now eng in
               expect "fence" (Flux_kvs.Volumes.fence c ~name:"shard-bench" ~nprocs:total);
               Flux_util.Stats.add fence_s (Engine.now eng -. t0);
               let t1 = Engine.now eng in
               let idx = (p * nputs) mod (total * nputs) in
               ignore
                 (expect "get"
                    (Flux_kvs.Volumes.get c ~key:(Printf.sprintf "d%d.k%d" (idx mod 997) idx))
                   : Json.t);
               Flux_util.Stats.add get_s (Engine.now eng -. t1);
               decr remaining)
            : Proc.pid)
      done;
      Engine.run eng;
      if !remaining <> 0 then failwith "shard bench clients stuck";
      let max_master_bytes =
        List.fold_left max 0
          (List.init shards (fun v ->
               Flux_kvs.Kvs_module.store_bytes
                 (Flux_kvs.Volumes.instance vt ~volume:v
                    ~rank:(Flux_kvs.Volumes.master_rank vt v))))
      in
      Printf.printf "%-8d %-14.6f %-14.6f %-16d\n%!" shards
        (Flux_util.Stats.max fence_s) (Flux_util.Stats.max get_s) max_master_bytes)
    [ 1; 2; 4; 8 ]

(* --- Fault injection: the RPC lifecycle under loss and parent death ------ *)

let faults () =
  header "Fault injection: fence under message loss, and a parent death mid-fence";
  (* (a) an 8-leaf fence on a 15-node tree with increasing injected loss:
     lost flushes/responses are recovered by the deadline + retransmit
     machinery at the cost of backoff latency. *)
  List.iter
    (fun loss ->
      let eng = Engine.create () in
      let sess = Session.create eng ~size:15 () in
      ignore (Kvs.load sess () : Kvs.t array);
      Net.set_loss (Session.rpc_net sess) loss;
      let nprocs = 8 in
      let released = ref 0 in
      let t_done = ref 0.0 in
      for r = 7 to 14 do
        ignore
          (Proc.spawn eng (fun () ->
               let c = Client.connect sess ~rank:r in
               (match Client.put c ~key:(Printf.sprintf "fl.%d" r) (Json.int r) with
               | Ok () -> ()
               | Error e -> failwith e);
               match Client.fence c ~name:"bench-loss" ~nprocs with
               | Ok _ ->
                 incr released;
                 t_done := Float.max !t_done (Engine.now eng)
               | Error _ -> ())
            : Proc.pid)
      done;
      Engine.run eng;
      let st = Net.stats (Session.rpc_net sess) in
      Printf.printf
        "  loss %3.0f%%: released %d/%d in %8.5f s, retries %3d, timeouts %2d, dead letters %3d\n%!"
        (100.0 *. loss) !released nprocs !t_done (Session.rpc_retries sess)
        (Session.rpc_timeouts sess) st.Net.dead_letters;
      fault_summary ~experiment:"faults-loss" sess
        ~extra:[ ("loss", Json.float loss); ("released", Json.int !released) ]
        ())
    [ 0.0; 0.02; 0.05; 0.10 ];
  (* (b) the EXPERIMENTS.md scenario: rank 6 (parent of 13 and 14) dies
     before their flushes arrive and is marked down a second later; the
     retransmits route through the healed parent and release the fence. *)
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  ignore (Kvs.load sess () : Kvs.t array);
  Session.crash sess 6;
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> Session.mark_down sess 6) : Engine.handle);
  let released = ref 0 in
  let t_done = ref 0.0 in
  List.iter
    (fun r ->
      ignore
        (Proc.spawn eng (fun () ->
             let c = Client.connect sess ~rank:r in
             (match Client.put c ~key:(Printf.sprintf "pd.%d" r) (Json.int r) with
             | Ok () -> ()
             | Error e -> failwith e);
             match Client.fence c ~name:"bench-pdeath" ~nprocs:3 with
             | Ok _ ->
               incr released;
               t_done := Float.max !t_done (Engine.now eng)
             | Error _ -> ())
          : Proc.pid))
    [ 5; 13; 14 ];
  Engine.run eng;
  Printf.printf
    "  parent death mid-fence: released %d/3 in %.3f s via the healed parent (retries %d, timeouts %d)\n%!"
    !released !t_done (Session.rpc_retries sess) (Session.rpc_timeouts sess);
  fault_summary ~experiment:"faults-parent-death" sess
    ~extra:[ ("released", Json.int !released) ]
    ();
  Printf.printf "%s" (Export.fault_counters_csv
    ~rpc_timeouts:(Session.rpc_timeouts sess)
    ~rpc_retries:(Session.rpc_retries sess)
    ~dead_letters:(Session.rpc_net_stats sess).Net.dead_letters
    ~dropped:(Session.rpc_net_stats sess).Net.dropped ())

(* --- Driver -------------------------------------------------------------------------- *)

let experiments =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4a", fig4a);
    ("fig4b", fig4b);
    ("sweep", sweep);
    ("model", model);
    ("ablate-sched", ablate_sched);
    ("ablate-fanout", ablate_fanout);
    ("ablate-shards", ablate_shards);
    ("faults", faults);
  ]

(* Every registered harness is also an experiment; "harnesses" names
   them all (it is what [make check] runs). A harness sweep that reports
   a violation makes the whole run exit 1. *)
let harness_names = List.map (fun h -> h.Harness.name) Registry.all

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) ->
      List.concat_map (fun n -> if n = "harnesses" then harness_names else [ n ]) names
    | _ -> List.map fst experiments @ harness_names
  in
  let t0 = Unix.gettimeofday () in
  let violations =
    List.fold_left
      (fun acc name ->
        match (List.assoc_opt name experiments, Registry.find name) with
        | Some f, _ ->
          f ();
          acc
        | None, Some h -> acc + Harness.run ~fast h
        | None, None ->
          Printf.eprintf "unknown experiment %S; available: %s harnesses\n" name
            (String.concat " " (List.map fst experiments @ harness_names));
          exit 1)
      0 requested
  in
  Printf.printf
    "\nall requested experiments done in %.1fs (real time), %d harness violations, %d failed Table I probes\n"
    (Unix.gettimeofday () -. t0) violations !table1_failures;
  if violations > 0 || !table1_failures > 0 then exit 1
