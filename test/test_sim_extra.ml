(* Additional simulator coverage: engine edge cases, process semantics,
   RNG distributional properties, and network accounting. *)

module Engine = Flux_sim.Engine
module Ivar = Flux_sim.Ivar
module Proc = Flux_sim.Proc
module Net = Flux_sim.Net
module Rng = Flux_util.Rng

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let flt = Alcotest.float 1e-12

let test_schedule_at_past_raises () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~delay:5.0 (fun () -> ()) : Engine.handle);
  Engine.run eng;
  check flt "clock advanced" 5.0 (Engine.now eng);
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time 1 is before now 5") (fun () ->
      ignore (Engine.schedule_at eng ~time:1.0 (fun () -> ()) : Engine.handle))

let test_every_invalid_period () =
  let eng = Engine.create () in
  Alcotest.check_raises "zero period" (Invalid_argument "Engine.every: period must be positive")
    (fun () -> ignore (Engine.every eng ~period:0.0 (fun () -> ()) : Engine.handle))

let test_every_cancel_from_inside () =
  let eng = Engine.create () in
  let count = ref 0 in
  let h = ref None in
  h :=
    Some
      (Engine.every eng ~period:1.0 (fun () ->
           incr count;
           if !count = 3 then Engine.cancel (Option.get !h)));
  Engine.run eng;
  check int "stopped itself at 3" 3 !count

let test_events_executed_counts () =
  let eng = Engine.create () in
  for _ = 1 to 5 do
    ignore (Engine.schedule eng ~delay:1.0 (fun () -> ()) : Engine.handle)
  done;
  let h = Engine.schedule eng ~delay:1.0 (fun () -> ()) in
  Engine.cancel h;
  Engine.run eng;
  check int "cancelled not counted" 5 (Engine.events_executed eng)

let test_proc_yield_interleaves () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore
    (Proc.spawn eng (fun () ->
         log := "a1" :: !log;
         Proc.yield ();
         log := "a2" :: !log));
  ignore
    (Proc.spawn eng (fun () ->
         log := "b1" :: !log;
         Proc.yield ();
         log := "b2" :: !log));
  Engine.run eng;
  check
    (Alcotest.list Alcotest.string)
    "yield gives way" [ "a1"; "b1"; "a2"; "b2" ] (List.rev !log)

let test_proc_nested_spawn () =
  let eng = Engine.create () in
  let done_at = ref 0.0 in
  ignore
    (Proc.spawn eng (fun () ->
         let iv = Ivar.create () in
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 2.0;
                Ivar.fill eng iv 42));
         let v = Proc.await iv in
         check int "inner value" 42 v;
         done_at := Engine.now eng));
  Engine.run eng;
  check flt "outer waited for inner" 2.0 !done_at

let test_proc_self_name () =
  let eng = Engine.create () in
  let name = ref "" in
  ignore (Proc.spawn eng ~name:"my-proc" (fun () -> name := Proc.self_name ()));
  Engine.run eng;
  check Alcotest.string "self name" "my-proc" !name

(* --- RNG distributional sanity ------------------------------------------------ *)

let test_rng_uniformity () =
  let r = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      check bool
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (abs (c - (n / 10)) < n / 20))
    buckets

let test_rng_exponential_mean () =
  let r = Rng.create 4 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r 7.0
  done;
  let mean = !sum /. float_of_int n in
  check bool (Printf.sprintf "mean near 7 (%.3f)" mean) true (Float.abs (mean -. 7.0) < 0.2)

let test_rng_float_bounds () =
  let r = Rng.create 12 in
  for _ = 1 to 10_000 do
    let f = Rng.float r 1.0 in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

(* --- Net accounting -------------------------------------------------------------- *)

let cfg : Net.config =
  {
    Net.link_latency = 10e-6;
    bandwidth = 1e9;
    per_msg_overhead = 64;
    host_cpu_per_msg = 0.0;
    host_cpu_per_byte = 0.0;
    local_delivery = 1e-6;
  }

let test_net_overhead_charged () =
  let eng = Engine.create () in
  let net = Net.create eng ~config:cfg ~nodes:2 () in
  let at = ref 0.0 in
  Net.set_handler net 1 (fun ~src:_ (_ : unit) -> at := Engine.now eng);
  Net.send net ~src:0 ~dst:1 ~size:0 ();
  Engine.run eng;
  (* 64 B of framing at 1 GB/s = 64 ns, plus 10 us latency. *)
  check flt "framing overhead on the wire" (10e-6 +. 64e-9) !at

let test_net_drop_counting () =
  let eng = Engine.create () in
  let net = Net.create eng ~config:cfg ~nodes:3 () in
  Net.set_handler net 1 (fun ~src:_ (_ : unit) -> ());
  Net.fail_node net 1;
  Net.send net ~src:0 ~dst:1 ~size:8 ();
  Net.send net ~src:0 ~dst:2 ~size:8 ();
  Net.fail_node net 0;
  Net.send net ~src:0 ~dst:2 ~size:8 ();
  Engine.run eng;
  let s = Net.stats net in
  check int "two drops" 2 s.Net.dropped;
  check int "one delivered" 1 s.Net.messages

let test_net_bad_rank_raises () =
  let eng = Engine.create () in
  let net : unit Net.t = Net.create eng ~config:cfg ~nodes:2 () in
  Alcotest.check_raises "bad dst" (Invalid_argument "Net.send: rank 7 out of range")
    (fun () -> Net.send net ~src:0 ~dst:7 ~size:0 ())

let test_ivar_waiter_order () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let order = ref [] in
  Ivar.on_full eng iv (fun v -> order := ("first", v) :: !order);
  Ivar.on_full eng iv (fun v -> order := ("second", v) :: !order);
  Ivar.fill eng iv 9;
  Engine.run eng;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int))
    "registration order preserved"
    [ ("first", 9); ("second", 9) ]
    (List.rev !order)

let () =
  Alcotest.run "flux_sim_extra"
    [
      ( "engine",
        [
          Alcotest.test_case "schedule_at past" `Quick test_schedule_at_past_raises;
          Alcotest.test_case "every invalid period" `Quick test_every_invalid_period;
          Alcotest.test_case "every cancel from inside" `Quick test_every_cancel_from_inside;
          Alcotest.test_case "executed counts" `Quick test_events_executed_counts;
        ] );
      ( "proc",
        [
          Alcotest.test_case "yield interleaves" `Quick test_proc_yield_interleaves;
          Alcotest.test_case "nested spawn" `Quick test_proc_nested_spawn;
          Alcotest.test_case "self name" `Quick test_proc_self_name;
          Alcotest.test_case "ivar waiter order" `Quick test_ivar_waiter_order;
        ] );
      ( "rng",
        [
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        ] );
      ( "net",
        [
          Alcotest.test_case "overhead charged" `Quick test_net_overhead_charged;
          Alcotest.test_case "drop counting" `Quick test_net_drop_counting;
          Alcotest.test_case "bad rank" `Quick test_net_bad_rank_raises;
        ] );
    ]
