module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Barrier = Flux_modules.Barrier
module Stats = Flux_util.Stats

type value_kind = Unique | Redundant

type dir_layout = Single_dir | Multi_dir of int

type sync_kind = Fence | Commit_wait

type config = {
  nodes : int;
  procs_per_node : int;
  producers : int;
  consumers : int;
  nputs : int;
  ngets : int;
  value_size : int;
  value_kind : value_kind;
  dir_layout : dir_layout;
  sync : sync_kind;
  access_stride : int;
  fanout : int;
  trace : bool;
}

let default =
  {
    nodes = 4;
    procs_per_node = 16;
    producers = 64;
    consumers = 64;
    nputs = 1;
    ngets = 1;
    value_size = 8;
    value_kind = Unique;
    dir_layout = Single_dir;
    sync = Fence;
    access_stride = 1;
    fanout = 2;
    trace = false;
  }

let fully_populated ~nodes =
  let total = nodes * 16 in
  { default with nodes; producers = total; consumers = total }

type phase_metrics = { ph_max : float; ph_mean : float; ph_min : float }

type result = {
  r_config : config;
  r_setup : phase_metrics;
  r_producer : phase_metrics;
  r_sync : phase_metrics;
  r_consumer : phase_metrics;
  r_total_objects : int;
  r_root_ingress_bytes : int;
  r_rpc_messages : int;
  r_loads_issued : int;
  r_wallclock : float;
  r_events : int;
  r_trace : Flux_trace.Tracer.t option;
  r_metrics : Flux_trace.Metrics.t option;
}

(* --- Value generation -------------------------------------------------- *)

(* Filler strings are memoized so that a 32 KiB redundant workload does
   not allocate one fresh buffer per producer. Unique values embed a
   10-digit tag and share the filler tail structurally, so even the
   unique-value runs stay within a constant memory footprint. *)
let fillers : (int, Json.t) Hashtbl.t = Hashtbl.create 8

let filler_sized n =
  match Hashtbl.find_opt fillers n with
  | Some v -> v
  | None ->
    let v = Json.pad n in
    Hashtbl.replace fillers n v;
    v

let make_value kind ~size ~salt =
  match kind with
  | Redundant -> filler_sized size
  | Unique ->
    if size < 20 then
      (* Too small for the tagged-list trick: a bare numeric string.
         Serialized size = width + 2 quotes. *)
      Json.string (Printf.sprintf "%0*d" (max 1 (size - 2)) salt)
    else
      (* ["<10-digit tag>", "<filler>"] — serialized size is
         2 (brackets) + 12 (tag) + 1 (comma) + filler. *)
      Json.list [ Json.string (Printf.sprintf "%010d" salt); filler_sized (size - 15) ]

(* --- Key layout ---------------------------------------------------------- *)

let key_of_object layout idx =
  match layout with
  | Single_dir -> Printf.sprintf "kap.o%d" idx
  | Multi_dir per_dir -> Printf.sprintf "kap.d%d.o%d" (idx / per_dir) idx

(* --- The tester ----------------------------------------------------------- *)

let metrics_of stats =
  if Stats.count stats = 0 then { ph_max = 0.0; ph_mean = 0.0; ph_min = 0.0 }
  else { ph_max = Stats.max stats; ph_mean = Stats.mean stats; ph_min = Stats.min stats }

let run cfg =
  if cfg.nodes <= 0 || cfg.procs_per_node <= 0 then
    invalid_arg "Kap.run: need at least one node and one process";
  let total = cfg.nodes * cfg.procs_per_node in
  if cfg.producers > total || cfg.consumers > total then
    invalid_arg "Kap.run: more roles than processes";
  if cfg.consumers > 0 && cfg.producers = 0 then
    invalid_arg "Kap.run: consumers need producers";
  (match cfg.dir_layout with
  | Multi_dir n when n <= 0 -> invalid_arg "Kap.run: directory size must be positive"
  | _ -> ());
  if cfg.value_size < 2 then invalid_arg "Kap.run: values need at least 2 bytes";
  let total_objects = cfg.producers * cfg.nputs in
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout:cfg.fanout ~size:cfg.nodes () in
  let kvs = Kvs.load sess () in
  let barriers = Barrier.load sess () in
  let tracer, metrics =
    if cfg.trace then begin
      (* Sized so a fully-populated 64-node fence keeps its early
         [fence.enter] events: critical-path analysis needs the whole
         span tree, not just the tail of the run. *)
      let tr =
        Flux_trace.Tracer.create ~capacity:2_000_000 ~now:(fun () -> Engine.now eng) ()
      in
      let m = Flux_trace.Metrics.create () in
      Session.set_tracer sess (Some tr);
      Session.set_metrics sess (Some m);
      Kvs.set_tracer_all kvs tr;
      Kvs.set_metrics_all kvs m;
      Barrier.set_tracer_all barriers tr;
      (Some tr, Some m)
    end
    else (None, None)
  in
  let setup_s = Stats.create () in
  let producer_s = Stats.create () in
  let sync_s = Stats.create () in
  let consumer_s = Stats.create () in
  let incomplete = ref total in
  let expect label = function
    | Ok v -> v
    | Error e -> failwith (Printf.sprintf "KAP %s failed: %s" label e)
  in
  (* Commit_wait bookkeeping: producers commit individually; the highest
     resulting version is handed to waiters out of band, mirroring the
     paper's causal-consistency pattern (A passes a store version to B,
     B calls kvs_wait_version before reading). *)
  let commits_done = ref 0 in
  let vmax = ref 0 in
  let all_committed = Flux_sim.Ivar.create () in
  for p = 0 to total - 1 do
    (* Consecutive global ranks land on consecutive nodes, per the paper. *)
    let node = p mod cfg.nodes in
    let is_producer = p < cfg.producers in
    let is_consumer = p < cfg.consumers in
    ignore
      (Proc.spawn eng ~name:(Printf.sprintf "kap-%d" p) (fun () ->
           let api = Api.connect sess ~rank:node in
           let c = Client.connect sess ~rank:node in
           (* Phase 1: setup — all testers rendezvous. *)
           let t0 = Engine.now eng in
           expect "setup barrier" (Barrier.enter api ~name:"kap-setup" ~nprocs:total);
           Stats.add setup_s (Engine.now eng -. t0);
           (* Phase 2: producer. *)
           let t1 = Engine.now eng in
           if is_producer then
             for j = 0 to cfg.nputs - 1 do
               let idx = (p * cfg.nputs) + j in
               let key = key_of_object cfg.dir_layout idx in
               let value = make_value cfg.value_kind ~size:cfg.value_size ~salt:idx in
               expect "put" (Client.put c ~key value)
             done;
           Stats.add producer_s (Engine.now eng -. t1);
           (* Phase 3: synchronization. *)
           let t2 = Engine.now eng in
           (match cfg.sync with
           | Fence ->
             ignore (expect "fence" (Client.fence c ~name:"kap-sync" ~nprocs:total) : int)
           | Commit_wait when cfg.producers = 0 -> ()
           | Commit_wait ->
             if is_producer then begin
               let v = expect "commit" (Client.commit c) in
               vmax := max !vmax v;
               incr commits_done;
               if !commits_done = cfg.producers then
                 Flux_sim.Ivar.fill eng all_committed !vmax
             end;
             let v = Proc.await all_committed in
             expect "wait_version" (Client.wait_version c v));
           Stats.add sync_s (Engine.now eng -. t2);
           (* Phase 4: consumer. *)
           let t3 = Engine.now eng in
           if is_consumer && total_objects > 0 then
             for k = 0 to cfg.ngets - 1 do
               let idx = ((p * cfg.access_stride) + k) mod total_objects in
               let key = key_of_object cfg.dir_layout idx in
               ignore (expect "get" (Client.get c ~key) : Json.t)
             done;
           Stats.add consumer_s (Engine.now eng -. t3);
           decr incomplete)
        : Proc.pid)
  done;
  Engine.run eng;
  if !incomplete <> 0 then
    failwith (Printf.sprintf "KAP: %d tester processes did not finish" !incomplete);
  let loads = Array.fold_left (fun acc k -> acc + Kvs.loads_issued k) 0 kvs in
  {
    r_config = cfg;
    r_setup = metrics_of setup_s;
    r_producer = metrics_of producer_s;
    r_sync = metrics_of sync_s;
    r_consumer = metrics_of consumer_s;
    r_total_objects = total_objects;
    r_root_ingress_bytes = Session.root_rpc_ingress_bytes sess;
    r_rpc_messages = (Session.rpc_net_stats sess).Flux_sim.Net.messages;
    r_loads_issued = loads;
    r_wallclock = Engine.now eng;
    r_events = Engine.events_executed eng;
    r_trace = tracer;
    r_metrics = metrics;
  }

let pp_result ppf r =
  let c = r.r_config in
  Format.fprintf ppf
    "nodes=%d procs=%d prod=%d cons=%d vsize=%d %s %s put_max=%.6f fence_max=%.6f get_max=%.6f"
    c.nodes
    (c.nodes * c.procs_per_node)
    c.producers c.consumers c.value_size
    (match c.value_kind with Unique -> "uniq" | Redundant -> "red")
    (match c.dir_layout with Single_dir -> "1dir" | Multi_dir n -> Printf.sprintf "dir%d" n)
    r.r_producer.ph_max r.r_sync.ph_max r.r_consumer.ph_max
