(* Tests for the discrete-event engine, processes, ivars and the
   network model. *)

module Engine = Flux_sim.Engine
module Ivar = Flux_sim.Ivar
module Proc = Flux_sim.Proc
module Net = Flux_sim.Net

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let flt = Alcotest.float 1e-12

(* --- Engine ---------------------------------------------------------- *)

let test_engine_order () =
  let eng = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule eng ~delay:2.0 (note "c"));
  ignore (Engine.schedule eng ~delay:1.0 (note "a"));
  ignore (Engine.schedule eng ~delay:1.5 (note "b"));
  Engine.run eng;
  check (Alcotest.list Alcotest.string) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check flt "clock at last event" 2.0 (Engine.now eng)

let test_engine_fifo_ties () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule eng ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run eng;
  check (Alcotest.list int) "insertion order at equal time" (List.init 10 Fun.id)
    (List.rev !log)

let test_engine_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run eng;
  check bool "cancelled" false !fired

(* The callback captures a fresh block and nothing else holds it. *)
let[@inline never] schedule_capturing eng w =
  let payload = Bytes.create 64 in
  Weak.set w 0 (Some payload);
  Engine.schedule eng ~delay:1.0 (fun () -> ignore (Sys.opaque_identity payload))

(* A disarmed deadline waits in the queue until the queue drains past
   it; meanwhile it must not keep what its callback captured alive. *)
let test_engine_cancel_releases () =
  let eng = Engine.create () in
  let w = Weak.create 1 in
  let h = schedule_capturing eng w in
  ignore (Engine.schedule eng ~delay:2.0 ignore : Engine.handle);
  Engine.cancel h;
  Gc.full_major ();
  check bool "captured block collected" false (Weak.check w 0);
  check int "entry not compacted away" 0 (Engine.compactions eng);
  Engine.run eng;
  check int "only the live event fired" 1 (Engine.events_executed eng)

let test_engine_nested_schedule () =
  let eng = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule eng ~delay:1.0 (fun () ->
         times := Engine.now eng :: !times;
         ignore
           (Engine.schedule eng ~delay:0.5 (fun () -> times := Engine.now eng :: !times))));
  Engine.run eng;
  check (Alcotest.list flt) "nested times" [ 1.0; 1.5 ] (List.rev !times)

let test_engine_until () =
  let eng = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> incr fired));
  ignore (Engine.schedule eng ~delay:10.0 (fun () -> incr fired));
  Engine.run ~until:5.0 eng;
  check int "only first fired" 1 !fired;
  check flt "clock clamped" 5.0 (Engine.now eng);
  Engine.run eng;
  check int "second fires later" 2 !fired

let test_engine_every () =
  let eng = Engine.create () in
  let count = ref 0 in
  let h = Engine.every eng ~period:1.0 (fun () -> incr count) in
  ignore
    (Engine.schedule eng ~delay:4.5 (fun () -> Engine.cancel h));
  Engine.run eng;
  check int "four ticks before cancel" 4 !count

let test_engine_negative_delay () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule eng ~delay:(-1.0) (fun () -> ())))

(* A NaN time never moves past a neighbour in the queue, so accepting
   one would let the clock run backwards and then become NaN. *)
let test_engine_rejects_nan () =
  let eng = Engine.create () in
  let times = ref [] in
  let note () = times := Engine.now eng :: !times in
  ignore (Engine.schedule_at eng ~time:1.0 note);
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule_at: NaN time")
    (fun () -> ignore (Engine.schedule_at eng ~time:Float.nan note));
  Alcotest.check_raises "NaN delay" (Invalid_argument "Engine.schedule: NaN delay")
    (fun () -> ignore (Engine.schedule eng ~delay:Float.nan note));
  ignore (Engine.schedule_at eng ~time:2.0 note);
  ignore (Engine.schedule_at eng ~time:0.5 note);
  Engine.run eng;
  check (Alcotest.list flt) "clock only moves forward" [ 0.5; 1.0; 2.0 ] (List.rev !times);
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time 0.25 is before now 2") (fun () ->
      ignore (Engine.schedule_at eng ~time:0.25 note))

let test_engine_until_before_now () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~delay:7.0 ignore);
  Engine.run eng;
  ignore (Engine.schedule eng ~delay:3.0 ignore);
  Alcotest.check_raises "until before now" (Invalid_argument "Engine.run: until 3 is before now 7")
    (fun () -> Engine.run ~until:3.0 eng);
  check flt "clock kept" 7.0 (Engine.now eng);
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule_at: time 4 is before now 7")
    (fun () -> ignore (Engine.schedule_at eng ~time:4.0 ignore))

let test_engine_exception_propagates () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> failwith "boom"));
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Engine.run eng)

(* --- Ivar ------------------------------------------------------------- *)

let test_ivar_fill_then_wait () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref None in
  Ivar.fill eng iv 42;
  Ivar.on_full eng iv (fun v -> got := Some v);
  Engine.run eng;
  check (Alcotest.option int) "late waiter" (Some 42) !got

let test_ivar_double_fill () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill eng iv 1;
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already full")
    (fun () -> Ivar.fill eng iv 2);
  check bool "try_fill returns false" false (Ivar.try_fill eng iv 3);
  check (Alcotest.option int) "value preserved" (Some 1) (Ivar.peek iv)

(* --- Proc -------------------------------------------------------------- *)

let test_proc_sleep () =
  let eng = Engine.create () in
  let wake = ref 0.0 in
  ignore
    (Proc.spawn eng (fun () ->
         Proc.sleep 2.5;
         wake := Engine.now eng));
  Engine.run eng;
  check flt "woke at 2.5" 2.5 !wake

let test_proc_await () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  ignore
    (Proc.spawn eng (fun () ->
         let v = Proc.await iv in
         got := v));
  ignore (Engine.schedule eng ~delay:3.0 (fun () -> Ivar.fill eng iv 7));
  Engine.run eng;
  check int "await value" 7 !got;
  check flt "resumed when filled" 3.0 (Engine.now eng)

let test_proc_two_procs_interleave () =
  let eng = Engine.create () in
  let log = ref [] in
  let note x = log := x :: !log in
  ignore
    (Proc.spawn eng (fun () ->
         note "a1";
         Proc.sleep 2.0;
         note "a2"));
  ignore
    (Proc.spawn eng (fun () ->
         note "b1";
         Proc.sleep 1.0;
         note "b2"));
  Engine.run eng;
  check
    (Alcotest.list Alcotest.string)
    "interleaving" [ "a1"; "b1"; "b2"; "a2" ] (List.rev !log)

let test_proc_kill () =
  let eng = Engine.create () in
  let reached = ref false in
  let p =
    Proc.spawn eng (fun () ->
        Proc.sleep 5.0;
        reached := true)
  in
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> Proc.kill eng p));
  Engine.run eng;
  check bool "killed before resumption" false !reached

let test_proc_join_all () =
  let eng = Engine.create () in
  let ivs = List.init 3 (fun _ -> Ivar.create ()) in
  List.iteri
    (fun i iv ->
      ignore
        (Proc.spawn eng (fun () ->
             Proc.sleep (float_of_int (i + 1));
             Ivar.fill eng iv ())))
    ivs;
  let all = Proc.join_all eng ivs in
  let done_at = ref 0.0 in
  ignore
    (Proc.spawn eng (fun () ->
         Proc.await all;
         done_at := Engine.now eng));
  Engine.run eng;
  check flt "joined at slowest" 3.0 !done_at

(* --- Net ----------------------------------------------------------------- *)

let cfg : Net.config =
  {
    Net.link_latency = 10e-6;
    bandwidth = 1e9;
    per_msg_overhead = 0;
    host_cpu_per_msg = 0.0;
    host_cpu_per_byte = 0.0;
    local_delivery = 1e-6;
  }

let test_net_latency_model () =
  let eng = Engine.create () in
  let net = Net.create eng ~config:cfg ~nodes:2 () in
  let arrival = ref 0.0 in
  Net.set_handler net 1 (fun ~src:_ (_ : string) -> arrival := Engine.now eng);
  Net.send net ~src:0 ~dst:1 ~size:1000 "hello";
  Engine.run eng;
  (* 1000 B / 1 GB/s = 1 us transfer + 10 us latency *)
  check flt "arrival time" 11e-6 !arrival

let test_net_fifo_serialization () =
  let eng = Engine.create () in
  let net = Net.create eng ~config:cfg ~nodes:2 () in
  let arrivals = ref [] in
  Net.set_handler net 1 (fun ~src:_ (_ : string) -> arrivals := Engine.now eng :: !arrivals);
  (* Two back-to-back 1000-byte messages share the link: the second is
     delayed by the first one's transfer time. *)
  Net.send net ~src:0 ~dst:1 ~size:1000 "m1";
  Net.send net ~src:0 ~dst:1 ~size:1000 "m2";
  Engine.run eng;
  (match List.rev !arrivals with
  | [ a1; a2 ] ->
    check flt "first" 11e-6 a1;
    check flt "second serialized" 12e-6 a2
  | _ -> Alcotest.fail "expected two arrivals");
  let s = Net.stats net in
  check int "messages" 2 s.Net.messages;
  check int "bytes" 2000 s.Net.bytes

let test_net_host_cpu () =
  let eng = Engine.create () in
  let cfg = { cfg with Net.host_cpu_per_msg = 5e-6 } in
  let net = Net.create eng ~config:cfg ~nodes:3 () in
  let arrivals = ref [] in
  Net.set_handler net 0 (fun ~src (_ : string) -> arrivals := (src, Engine.now eng) :: !arrivals);
  (* Two messages from different sources contend on the receiver CPU. *)
  Net.send net ~src:1 ~dst:0 ~size:0 "a";
  Net.send net ~src:2 ~dst:0 ~size:0 "b";
  Engine.run eng;
  (match List.rev !arrivals with
  | [ (_, t1); (_, t2) ] ->
    check flt "first cpu done" 15e-6 t1;
    check flt "second waits for cpu" 20e-6 t2
  | _ -> Alcotest.fail "expected two arrivals")

let test_net_failure_drops () =
  let eng = Engine.create () in
  let net = Net.create eng ~config:cfg ~nodes:2 () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~src:_ (_ : string) -> incr got);
  Net.fail_node net 1;
  Net.send net ~src:0 ~dst:1 ~size:10 "x";
  Engine.run eng;
  check int "dropped" 0 !got;
  check int "counted" 1 (Net.stats net).Net.dropped;
  Net.revive_node net 1;
  Net.send net ~src:0 ~dst:1 ~size:10 "y";
  Engine.run eng;
  check int "delivered after revive" 1 !got

let test_net_dead_source () =
  let eng = Engine.create () in
  let net = Net.create eng ~config:cfg ~nodes:2 () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~src:_ (_ : string) -> incr got);
  Net.fail_node net 0;
  Net.send net ~src:0 ~dst:1 ~size:10 "x";
  Engine.run eng;
  check int "nothing sent" 0 !got

let test_net_local_delivery () =
  let eng = Engine.create () in
  let net = Net.create eng ~config:cfg ~nodes:1 () in
  let at = ref 0.0 in
  Net.set_handler net 0 (fun ~src:_ (_ : string) -> at := Engine.now eng);
  Net.send net ~src:0 ~dst:0 ~size:100 "self";
  Engine.run eng;
  check flt "loopback cost" 1e-6 !at

let test_net_link_bytes () =
  let eng = Engine.create () in
  let net = Net.create eng ~config:cfg ~nodes:3 () in
  Net.set_handler net 1 (fun ~src:_ (_ : string) -> ());
  Net.send net ~src:0 ~dst:1 ~size:123 "x";
  Net.send net ~src:0 ~dst:1 ~size:77 "y";
  Engine.run eng;
  check int "per-link accounting" 200 (Net.link_bytes net ~src:0 ~dst:1);
  check int "other link empty" 0 (Net.link_bytes net ~src:1 ~dst:0)

(* Determinism: two identical simulations execute identical event counts
   and end at identical clocks. *)
let test_determinism () =
  let run_once () =
    let eng = Engine.create () in
    let net = Net.create eng ~config:cfg ~nodes:8 () in
    let rng = Flux_util.Rng.create 17 in
    for r = 0 to 7 do
      Net.set_handler net r (fun ~src:_ (_ : string) -> ())
    done;
    for _ = 1 to 200 do
      let src = Flux_util.Rng.int rng 8 and dst = Flux_util.Rng.int rng 8 in
      Net.send net ~src ~dst ~size:(Flux_util.Rng.int rng 4096) "m"
    done;
    Engine.run eng;
    (Engine.now eng, Engine.events_executed eng, (Net.stats net).Net.bytes)
  in
  let a = run_once () and b = run_once () in
  check bool "identical runs" true (a = b)

let () =
  Alcotest.run "flux_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_order;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel releases the callback" `Quick test_engine_cancel_releases;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "every" `Quick test_engine_every;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
          Alcotest.test_case "NaN time" `Quick test_engine_rejects_nan;
          Alcotest.test_case "until before now" `Quick test_engine_until_before_now;
          Alcotest.test_case "exception propagates" `Quick test_engine_exception_propagates;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then wait" `Quick test_ivar_fill_then_wait;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
        ] );
      ( "proc",
        [
          Alcotest.test_case "sleep" `Quick test_proc_sleep;
          Alcotest.test_case "await" `Quick test_proc_await;
          Alcotest.test_case "interleave" `Quick test_proc_two_procs_interleave;
          Alcotest.test_case "kill" `Quick test_proc_kill;
          Alcotest.test_case "join_all" `Quick test_proc_join_all;
        ] );
      ( "net",
        [
          Alcotest.test_case "latency model" `Quick test_net_latency_model;
          Alcotest.test_case "fifo serialization" `Quick test_net_fifo_serialization;
          Alcotest.test_case "host cpu" `Quick test_net_host_cpu;
          Alcotest.test_case "failure drops" `Quick test_net_failure_drops;
          Alcotest.test_case "dead source" `Quick test_net_dead_source;
          Alcotest.test_case "local delivery" `Quick test_net_local_delivery;
          Alcotest.test_case "link bytes" `Quick test_net_link_bytes;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
    ]
