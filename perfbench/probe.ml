(* Measurement plumbing shared by every workload: the run modes, the
   outcome record a workload hands back, order statistics, the engine
   drive loop, GC deltas and GC pause time read through Runtime_events,
   and the payload-layer timer. Every layer is measured from outside:
   the benchmark times calls into public functions and reads public
   counters; nothing here reaches into the library. *)

module Json = Flux_json.Json
module Sha1 = Flux_sha1.Sha1
module Engine = Flux_sim.Engine

type mode =
  | Plain  (** [Engine.run] with nothing attached: the end-to-end wall time *)
  | Layered  (** the benchmark steps the engine itself and reads layer counters *)
  | Traced  (** [Layered] plus the session tracer and metrics registry *)

type row = { name : string; value : float; unit_ : string }

let row name unit_ value = { name; value; unit_ }

let count name n = row name "count" (float_of_int n)

type outcome = {
  attempted : int;  (** operations issued (puts, fences, gets, tasks, ...) *)
  failed : int;  (** operations that returned an error or a wrong value *)
  wall_s : float;  (** drain the engine *)
  events : int;
  clock_s : float;
  rpc_messages : int;
  sim : row list;  (** end-to-end simulated metrics (virtual time) *)
  layers : row list;  (** per-layer rows; empty in [Plain] mode *)
  store : Json.t list;  (** final object store; [Layered] mode only *)
  live_mb : float;  (** live heap at drain; 0 unless asked for *)
}

let now = Unix.gettimeofday

(* --- Order statistics ------------------------------------------------------ *)

let sorted_copy a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of an already sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

let median = function
  | [] -> 0.0
  | l ->
    let a = sorted_copy (Array.of_list l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* --- GC pause time through Runtime_events ---------------------------------- *)

(* The runtime's own ring of begin/end phase events, read in this
   process. Only the outermost phase on domain 0 is summed, so nested
   phases (a minor collection inside a major slice, say) count once.
   The ring is polled while the engine steps so it never wraps. *)
module Pause = struct
  let cursor = ref None

  let depth = ref 0

  let since = ref 0L

  let total_ns = ref 0L

  let callbacks =
    lazy
      (Runtime_events.Callbacks.create
         ~runtime_begin:(fun dom ts _ ->
           if dom = 0 then begin
             if !depth = 0 then since := Runtime_events.Timestamp.to_int64 ts;
             incr depth
           end)
         ~runtime_end:(fun dom ts _ ->
           if dom = 0 && !depth > 0 then begin
             decr depth;
             if !depth = 0 then
               total_ns :=
                 Int64.add !total_ns
                   (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !since)
           end)
         ~lost_events:(fun _ _ -> depth := 0)
         ())

  let start () =
    if Option.is_none !cursor then begin
      Runtime_events.start ();
      cursor := Some (Runtime_events.create_cursor None)
    end

  let poll () =
    match !cursor with
    | None -> ()
    | Some c -> ignore (Runtime_events.read_poll c (Lazy.force callbacks) None : int)

  (* Seconds of GC pause since the last [take]. Called from OCaml code,
     so no GC phase is open once the ring is drained. *)
  let take () =
    poll ();
    depth := 0;
    let v = !total_ns in
    total_ns := 0L;
    Int64.to_float v *. 1e-9
end

(* Megabytes of live major-heap data while [keep] (the drained
   simulation) is still reachable. A full major collection first, so
   the figure is the state the simulation holds, not GC slack; unlike
   the peak heap it does not hinge on where GC cycles happen to fall. *)
let live_heap_mb keep =
  Gc.full_major ();
  let words = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity keep);
  float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* --- Reference loop ----------------------------------------------------------- *)

(* A fixed discrete-event loop written against the standard library
   only: a priority map of pending closures, each firing schedules one
   successor at a pseudo-random delay. It allocates and chases pointers
   the way the engine does, but no change to the library can touch it,
   so its time is a measure of the machine's speed during the run.
   On a shared 2-core host, speed swung by 2x for minutes at a time
   while wall time stayed equal to CPU time (so the swing is in the
   speed of the core, not in scheduling); end-to-end times are rescaled
   by this loop so that such a swing does not read as a regression. *)
module Pending = Map.Make (struct
  type t = float * int

  let compare = compare
end)

let reference_loop () =
  let q = ref Pending.empty and x = ref 11 and fired = ref 0 in
  let uniform () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    float_of_int !x /. 1073741824.0
  in
  let rec event t () =
    incr fired;
    if !fired < 90_000 then q := Pending.add (t +. uniform (), !fired) (event (t +. 1.0)) !q
  in
  for i = 1 to 10_000 do
    q := Pending.add (uniform (), -i) (event 0.0) !q
  done;
  while not (Pending.is_empty !q) do
    let k, f = Pending.min_binding !q in
    q := Pending.remove k !q;
    f ()
  done

let reference_s () =
  let t0 = now () in
  reference_loop ();
  now () -. t0

(* End-to-end times are in reference seconds: real seconds scaled so
   that the reference loop would take [reference_nominal_s]. *)
let reference_nominal_s = 0.1

(* --- Driving the engine ---------------------------------------------------- *)

(* Drain the engine and return (wall seconds, gc rows). [Plain] calls
   [Engine.run]; the other modes step the engine so the workload can
   watch phase boundaries and sample queues through [on_step], and
   report the GC layer over exactly the drain window. *)
let drive mode eng ~on_step =
  match mode with
  | Plain ->
    let t0 = now () in
    Engine.run eng;
    (now () -. t0, [])
  | Layered | Traced ->
    ignore (Pause.take () : float);
    let g0 = Gc.quick_stat () in
    let e0 = Engine.events_executed eng in
    let t0 = now () in
    let n = ref 0 in
    while Engine.step eng do
      on_step ();
      incr n;
      if !n land 4095 = 0 then Pause.poll ()
    done;
    let wall = now () -. t0 in
    let g1 = Gc.quick_stat () in
    let pause = Pause.take () in
    let events = max 1 (Engine.events_executed eng - e0) in
    let alloc (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
    ( wall,
      [
        row "gc.alloc_words_per_event" "words/event" ((alloc g1 -. alloc g0) /. float_of_int events);
        count "gc.minor_collections" (g1.minor_collections - g0.minor_collections);
        count "gc.major_collections" (g1.major_collections - g0.major_collections);
        row "gc.promoted_words" "words" (g1.promoted_words -. g0.promoted_words);
        row "gc.pause_s" "s" pause;
        row "gc.top_heap_mb" "MB"
          (float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1e6);
      ] )

(* Engine, net and session counters every workload reports the same way. *)
let engine_rows eng ~wall =
  let events = Engine.events_executed eng in
  [
    count "sim.events" events;
    row "sim.clock_s" "s" (Engine.now eng);
    row "sim.us_per_event" "us/event" (wall *. 1e6 /. float_of_int (max 1 events));
    count "sim.compactions" (Engine.compactions eng);
  ]

let session_rows sess =
  let module S = Flux_cmb.Session in
  let module N = Flux_sim.Net in
  let planes = [ ("rpc", S.rpc_net_stats sess); ("event", S.event_net_stats sess); ("ring", S.ring_net_stats sess) ] in
  List.concat_map
    (fun (p, (s : N.stats)) ->
      [
        count (Printf.sprintf "net.%s.msgs" p) s.messages;
        row (Printf.sprintf "net.%s.bytes" p) "B" (float_of_int s.bytes);
      ])
    planes
  @ [
      count "net.dropped" (List.fold_left (fun acc (_, (s : N.stats)) -> acc + s.dropped) 0 planes);
      count "cmb.rpc_messages" (S.rpc_net_stats sess).messages;
      count "cmb.rpc_retries" (S.rpc_retries sess);
      count "cmb.rpc_timeouts" (S.rpc_timeouts sess);
      row "cmb.root_ingress_bytes" "B" (float_of_int (S.root_rpc_ingress_bytes sess));
    ]

let kvs_rows (kvs : Flux_kvs.Kvs_module.t array) =
  let module K = Flux_kvs.Kvs_module in
  let sum f = Array.fold_left (fun acc k -> acc + f k) 0 kvs in
  let master_bytes =
    Array.fold_left (fun acc k -> if K.is_master k then acc + K.store_bytes k else acc) 0 kvs
  in
  [
    count "kvs.loads_issued" (sum K.loads_issued);
    row "kvs.master_store_bytes" "B" (float_of_int master_bytes);
    count "kvs.cached_objects" (sum K.cached_objects);
  ]

(* Final object store of the master, as the run left it. *)
let final_store (kvs : Flux_kvs.Kvs_module.t array) =
  let module K = Flux_kvs.Kvs_module in
  match Array.to_list kvs |> List.find_opt K.is_master with
  | None -> []
  | Some m -> (
    match K.snapshot m with
    | Ok s -> List.map snd s.Flux_kvs.Snapshot.s_objects
    | Error _ -> [])

(* Rows the traced run reads off the metrics registry. *)
let registry_rows m =
  let module M = Flux_trace.Metrics in
  let q name f = match M.summary_merged m ~name with Some s -> f s | None -> 0.0 in
  let hits = M.counter_total m ~name:"kvs.cache.hit" in
  let lookups = hits + M.counter_total m ~name:"kvs.cache.miss" in
  [
    row "cmb.rpc_latency_p50_sim_s" "s" (q "cmb.rpc.latency" (fun s -> s.M.p50));
    row "cmb.rpc_latency_p99_sim_s" "s" (q "cmb.rpc.latency" (fun s -> s.M.p99));
    row "net.rpc.queue_wait_p99_sim_s" "s" (q "net.rpc.queue_wait" (fun s -> s.M.p99));
    row "kvs.cache_hit_ratio" "ratio"
      (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups);
    count "kvs.cache_lookups" lookups;
    row "kvs.fault_in_p99_sim_s" "s" (q "kvs.fault_in.latency" (fun s -> s.M.p99));
    row "kvs.commit_tuples" "count" (q "kvs.commit.tuples" (fun s -> s.M.sum));
  ]

(* --- Payload layer ---------------------------------------------------------- *)

(* Time the JSON size model, the printer and the SHA-1 digest on the
   run's own final object store. Each timed pass works on a fresh deep
   copy, so the size and digest memos (keyed by physical identity)
   start cold, as they do for every new object during a run. Median of
   three passes. *)
let payload_rows store =
  let fresh () = List.map (fun v -> Json.of_string (Json.to_string v)) store in
  let timed f =
    median
      (List.init 3 (fun _ ->
           let copy = fresh () in
           let t0 = now () in
           List.iter f copy;
           now () -. t0))
  in
  let objects = List.length store in
  let bytes = List.fold_left (fun acc v -> acc + Json.serialized_size v) 0 store in
  let per n t = if n = 0 then 0.0 else t *. 1e9 /. float_of_int n in
  [
    row "json.size_ns_per_obj" "ns/obj"
      (per objects (timed (fun v -> ignore (Json.serialized_size v : int))));
    row "json.print_ns_per_byte" "ns/B" (per bytes (timed (fun v -> ignore (Json.to_string v : string))));
    row "sha1.ns_per_byte" "ns/B" (per bytes (timed (fun v -> ignore (Sha1.digest_json v : Sha1.digest))));
    count "payload.objects" objects;
    row "payload.bytes" "B" (float_of_int bytes);
  ]
