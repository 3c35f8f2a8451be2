(* The two KAP workloads (the paper's Section V tester), written
   against the public KVS client so every get can be checked against
   the value its producer put.

   Closed loop: one client per simulated process, and each process
   waits for every reply before its next call. Four phases per
   process: a setup barrier, one put, one fence over every process,
   then [ngets] gets.

   kap-fence — 512 nodes x 16 procs, one unique 512 B value per
     process in a single directory, one get each. The paper's Fig. 2/3
     write path at paper scale: few, expensive events (fence
     aggregation, master apply and the payload layer dominate; slave
     fault-in is light). At seed 0 it is exactly the `bench perf`
     fig2-put-fence configuration.
   kap-get — 512 x 16 procs, unique 8 B values inlined in directories
     of at most 128 objects, 16 gets per consumer at stride 7
     (Fig. 4b). Many cheap events: engine, net and session dispatch and
     slave-cache fault-in dominate; the payload layer is light.

   The seed only moves data, never the shape: seed 0 is the canonical
   layout (process p writes object p and reads from object p*stride);
   any other seed rotates that assignment by a seed-drawn offset and
   re-salts every value's tag. Readers and writers rotate together, so
   on kap-fence every process still reads back its own object. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Barrier = Flux_modules.Barrier
module Rng = Flux_util.Rng
open Probe

type shape = {
  nodes : int;
  ppn : int;
  value_size : int;
  per_dir : int option;  (** [None]: one directory *)
  ngets : int;
  stride : int;
  headline : [ `Write | `Read ];
      (** what the end-to-end sim latencies time per process: put plus
          fence, or the whole get phase *)
}

let fence_shape =
  { nodes = 512; ppn = 16; value_size = 512; per_dir = None; ngets = 1; stride = 1; headline = `Write }

let get_shape =
  { nodes = 512; ppn = 16; value_size = 8; per_dir = Some 128; ngets = 16; stride = 7; headline = `Read }

let toy s = { s with nodes = 8 }

let dims s =
  [
    ("nodes", Json.int s.nodes);
    ("procs", Json.int (s.nodes * s.ppn));
    ("value_bytes", Json.int s.value_size);
    ("values", Json.string "unique");
    ( "directory",
      Json.string
        (match s.per_dir with None -> "single" | Some n -> Printf.sprintf "at most %d objects" n) );
    ("gets_per_consumer", Json.int s.ngets);
    ("get_stride", Json.int s.stride);
    ("loop", Json.string "closed, one client per process");
  ]

let key s idx =
  match s.per_dir with
  | None -> Printf.sprintf "kap.o%d" idx
  | Some n -> Printf.sprintf "kap.d%d.o%d" (idx / n) idx

(* The KAP value encoding: a bare zero-padded tag below 20 bytes, else
   [tag, filler] with the filler shared by every value of the run. *)
let values s ~seed ~total =
  if s.value_size < 20 then
    let width = max 1 (s.value_size - 2) in
    let modulus = int_of_float (10.0 ** float_of_int width) in
    Array.init total (fun i ->
        Json.string (Printf.sprintf "%0*d" width (((seed * 100_003) + i) mod modulus)))
  else
    let filler = Json.pad (s.value_size - 15) in
    Array.init total (fun i ->
        Json.list
          [ Json.string (Printf.sprintf "%010d" (((seed * 100_003) + i) mod 10_000_000_000)); filler ])

let phases = [| "barrier"; "put"; "fence"; "get" |]

let run s ~seed ~plant ~mode ~live =
  let total = s.nodes * s.ppn in
  let off = if seed = 0 then 0 else Rng.int (Rng.create seed) total in
  let vals = values s ~seed ~total in
  let expected = Array.copy vals in
  if plant then expected.(0) <- Json.string "planted wrong value";
  let keys = Array.init total (key s) in
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout:2 ~size:s.nodes () in
  let kvs = Kvs.load sess () in
  let barriers = Barrier.load sess () in
  let registry =
    match mode with
    | Traced ->
      let tr = Flux_trace.Tracer.create ~capacity:65_536 ~now:(fun () -> Engine.now eng) () in
      let m = Flux_trace.Metrics.create () in
      Session.set_tracer sess (Some tr);
      Session.set_metrics sess (Some m);
      Kvs.set_tracer_all kvs tr;
      Kvs.set_metrics_all kvs m;
      Barrier.set_tracer_all barriers tr;
      Some m
    | Plain | Layered -> None
  in
  let put_lat = Array.make total 0.0 in
  let fence_lat = Array.make total 0.0 in
  let get_phase = Array.make total 0.0 in
  let ok = ref 0 in
  let passed = Array.make (Array.length phases) 0 in
  let check = function Ok _ -> incr ok | Error _ -> () in
  for p = 0 to total - 1 do
    let node = p mod s.nodes in
    ignore
      (Proc.spawn eng ~name:(Printf.sprintf "kap-%d" p) (fun () ->
           let api = Api.connect sess ~rank:node in
           let c = Client.connect sess ~rank:node in
           check (Barrier.enter api ~name:"kap-setup" ~nprocs:total);
           passed.(0) <- passed.(0) + 1;
           let t1 = Engine.now eng in
           let obj = (p + off) mod total in
           check (Client.put c ~key:keys.(obj) vals.(obj));
           put_lat.(p) <- Engine.now eng -. t1;
           passed.(1) <- passed.(1) + 1;
           let t2 = Engine.now eng in
           check (Client.fence c ~name:"kap-sync" ~nprocs:total);
           fence_lat.(p) <- Engine.now eng -. t2;
           passed.(2) <- passed.(2) + 1;
           let t3 = Engine.now eng in
           for k = 0 to s.ngets - 1 do
             let idx = ((obj * s.stride) + k) mod total in
             match Client.get c ~key:keys.(idx) with
             | Ok v when Json.equal v expected.(idx) -> incr ok
             | Ok _ | Error _ -> ()
           done;
           get_phase.(p) <- Engine.now eng -. t3;
           passed.(3) <- passed.(3) + 1)
        : Proc.pid)
  done;
  fun () ->
    (* Phase windows: a phase ends when the last process leaves it. *)
    let marks = Array.make (Array.length phases) (0.0, 0) in
    let next = ref 0 in
    let on_step () =
      while !next < Array.length phases && passed.(!next) = total do
        marks.(!next) <- (now (), Engine.events_executed eng);
        incr next
      done
    in
    let start = (now (), 0) in
    let wall_s, gc_rows = drive mode eng ~on_step in
    let attempted = total * (3 + s.ngets) in
    let sorted_get_phase = sorted_copy get_phase in
    let op_lat =
      match s.headline with
      | `Write -> sorted_copy (Array.init total (fun p -> put_lat.(p) +. fence_lat.(p)))
      | `Read -> sorted_get_phase
    in
    let sim =
      [
        row "sim_op_p50_s" "s" (quantile op_lat 0.5);
        row "sim_op_p99_s" "s" (quantile op_lat 0.99);
        row "sim_ops_per_s" "1/s" (float_of_int !ok /. Engine.now eng);
      ]
    in
    let layers =
      match mode with
      | Plain -> []
      | Layered | Traced ->
        let windows =
          List.concat
            (List.mapi
               (fun i name ->
                 let w0, e0 = if i = 0 then start else marks.(i - 1) in
                 let w1, e1 = marks.(i) in
                 [
                   row (Printf.sprintf "kap.%s.wall_s" name) "s" (if !next > i then w1 -. w0 else 0.0);
                   count (Printf.sprintf "kap.%s.events" name) (if !next > i then e1 - e0 else 0);
                 ])
               (Array.to_list phases))
        in
        engine_rows eng ~wall:wall_s @ session_rows sess @ kvs_rows kvs @ gc_rows @ windows
        @ [
            row "kap.put_max_sim_s" "s" (Array.fold_left Float.max 0.0 put_lat);
            row "kap.fence_max_sim_s" "s" (Array.fold_left Float.max 0.0 fence_lat);
            row "kap.get_max_sim_s" "s" (quantile sorted_get_phase 1.0);
            row "kap.get_p50_sim_s" "s" (quantile sorted_get_phase 0.5);
          ]
        @ match registry with Some m -> registry_rows m | None -> []
    in
    {
      attempted;
      failed = attempted - !ok;
      wall_s;
      events = Engine.events_executed eng;
      clock_s = Engine.now eng;
      rpc_messages = (Session.rpc_net_stats sess).Flux_sim.Net.messages;
      sim;
      layers;
      store = (match mode with Layered -> final_store kvs | Plain | Traced -> []);
      live_mb = (if live then live_heap_mb (eng, sess, kvs, barriers) else 0.0);
    }
