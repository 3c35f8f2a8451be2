module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Rng = Flux_util.Rng
module Stats = Flux_util.Stats
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api

(* Per-attempt client deadline and transmissions per mput. *)
let op_timeout = 1.0
let op_attempts = 6

type t = {
  eng : Engine.t;
  sess : Session.t;
  h : History.t;
  duration : float;
  lat : Stats.t;
  mutable offered : int;
  mutable acked : int;
  mutable shed : int;
  mutable failed : int;
  mutable last_ack : float; (* when the final ack landed *)
}

let create sess h ~duration =
  {
    eng = Session.engine sess;
    sess;
    h;
    duration;
    lat = Stats.create ();
    offered = 0;
    acked = 0;
    shed = 0;
    failed = 0;
    last_ack = 0.0;
  }

let inject t ~api (topic, key, v) =
  let sent = Engine.now t.eng in
  t.offered <- t.offered + 1;
  Api.rpc_async api ~timeout:op_timeout ~attempts:op_attempts ~idempotent:true ~topic
    (Json.obj [ ("bindings", Json.list [ Json.obj [ ("key", Json.string key); ("v", v) ] ]) ])
    ~reply:(fun r ->
      match r with
      | Ok _ ->
        t.acked <- t.acked + 1;
        t.last_ack <- Engine.now t.eng;
        Stats.add t.lat (Engine.now t.eng -. sent);
        History.ack t.h key v
      | Error e ->
        if Session.busy_retry_after e <> None then t.shed <- t.shed + 1
        else t.failed <- t.failed + 1)

(* Arrivals are scheduled on the engine at drawn interarrival times
   regardless of how many ops are still in flight. *)
let producer t ~rank ~seed ~rate op =
  let api = Api.connect t.sess ~rank in
  let rng = Rng.create (seed lxor (rank * 0x9e3779b1)) in
  let seq = ref 0 in
  let rec arm () =
    let now = Engine.now t.eng in
    if now < t.duration then begin
      let gap = Rng.exponential rng (1.0 /. rate now) in
      ignore
        (Engine.schedule t.eng ~delay:gap (fun () ->
             if Engine.now t.eng < t.duration then begin
               incr seq;
               inject t ~api (op !seq);
               arm ()
             end)
          : Engine.handle)
    end
  in
  arm ()

type summary = {
  offered : int;
  acked : int;
  shed : int;
  failed : int;
  goodput : float;
  ack_p50 : float;
  ack_p99 : float;
  lost_acks : int;
}

let drain t ~rank read =
  (* Open-loop arrivals stop at [duration]; then every in-flight RPC
     resolves (ack, busy, or timeout) and the engine goes quiet. The raw
     engine clock would overshoot the busy window: idle housekeeping
     timers (stash sweeps, deadline arming) can fire long after the last
     useful event. *)
  Engine.run t.eng;
  let drain_clock = Float.max t.duration t.last_ack in
  let before = List.length (History.violations t.h) in
  ignore
    (Proc.spawn t.eng (fun () ->
         ignore (History.verify t.h ~label:(Printf.sprintf "verify@%d" rank) read : int))
      : Proc.pid);
  Engine.run t.eng;
  let lost_acks = List.length (History.violations t.h) - before in
  let unresolved = t.offered - t.acked - t.shed - t.failed in
  if unresolved <> 0 then History.violate t.h "%d offered ops never resolved" unresolved;
  let pct p = if Stats.count t.lat = 0 then 0.0 else Stats.percentile t.lat p in
  {
    offered = t.offered;
    acked = t.acked;
    shed = t.shed;
    failed = t.failed;
    goodput = float_of_int t.acked /. drain_clock;
    ack_p50 = pct 0.50;
    ack_p99 = pct 0.99;
    lost_acks;
  }
