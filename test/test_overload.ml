(* Overload protection, end to end: per-link net caps, credit-based
   flow control on the request tree, master admission control with
   retry_after hints — and the soak harness proving the composed stack
   keeps occupancy bounded, never loses an acked write, and drains once
   the storm stops. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Net = Flux_sim.Net
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Overload = Flux_harness.Overload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* --- Bounded net links ---------------------------------------------------- *)

let flood net ~n =
  for i = 1 to n do
    Net.send net ~src:0 ~dst:1 ~size:100 i
  done

let test_net_block_defers_without_loss () =
  let eng = Engine.create () in
  let net = Net.create eng ~nodes:2 () in
  Net.set_link_limits net (Some 4);
  let got = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr got);
  flood net ~n:32;
  Engine.run eng;
  let s = Net.stats net in
  check int "all delivered" 32 !got;
  check bool "sends were deferred" true (s.Net.overload_defers > 0);
  check int "nothing dropped" 0 s.Net.dropped;
  check bool "depth bounded" true (Net.max_link_depth_hwm net <= 4)

let test_net_unbounded_unchanged () =
  (* The bounded machinery must be pay-for-what-you-use: with no limits
     installed the delivery schedule and stats match the seed model. *)
  let run limits =
    let eng = Engine.create () in
    let net = Net.create eng ~nodes:3 () in
    Net.set_link_limits net limits;
    let log = ref [] in
    Net.set_handler net 1 (fun ~src m -> log := (src, m, Engine.now eng) :: !log);
    for i = 1 to 10 do
      Net.send net ~src:0 ~dst:1 ~size:(50 * i) i;
      Net.send net ~src:2 ~dst:1 ~size:77 (100 + i)
    done;
    Engine.run eng;
    !log
  in
  let loose = Some max_int in
  Alcotest.(check bool)
    "loose limits deliver identically" true
    (run None = run loose)

(* --- Master admission control --------------------------------------------- *)

let test_admission_sheds_and_recovers () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:2 () in
  let kvs =
    Kvs.load sess
      ~config:
        {
          Kvs.default_config with
          Kvs.apply_cpu_per_tuple = 1e-3;
          admission_max_intake = 2;
          admission_retry_after = 1e-3;
        }
      ()
  in
  (* Phase 1: single-attempt mputs straight at the master, so the busy
     rejection surfaces to the caller instead of being absorbed by an
     intermediate hop's retries. *)
  let api = Api.connect sess ~rank:0 in
  let ok = ref 0 and busy = ref 0 and other = ref 0 in
  for i = 1 to 16 do
    Api.rpc_async api ~timeout:0.2 ~attempts:1 ~idempotent:true ~topic:"kvs.mput"
      (Json.obj
         [
           ( "bindings",
             Json.list [ Json.obj [ ("key", Printf.ksprintf Json.string "adm.%d" i); ("v", Json.int i) ] ]
           );
         ])
      ~reply:(fun r ->
        match r with
        | Ok _ -> incr ok
        | Error e when Session.busy_retry_after e <> None -> incr busy
        | Error _ -> incr other)
  done;
  Engine.run eng;
  check int "all resolved" 16 (!ok + !busy + !other);
  check bool "some admitted" true (!ok > 0);
  check bool "overflow shed busy" true (!busy > 0);
  check int "no other failures" 0 !other;
  check int "gate counted the sheds" !busy (Kvs.admission_sheds kvs.(0));
  check bool "intake stayed bounded" true (Kvs.intake_hwm kvs.(0) <= 2);
  check int "intake drained" 0 (Kvs.intake_depth kvs.(0));
  (* Phase 2: the same burst from a slave rank, with retries enabled —
     the hint is honoured along the way and every op eventually lands. *)
  let api = Api.connect sess ~rank:1 in
  let ok2 = ref 0 in
  for i = 1 to 16 do
    Api.rpc_async api ~timeout:2.0 ~attempts:8 ~idempotent:true ~topic:"kvs.mput"
      (Json.obj
         [
           ( "bindings",
             Json.list
               [ Json.obj [ ("key", Printf.ksprintf Json.string "adm2.%d" i); ("v", Json.int i) ] ] );
         ])
      ~reply:(fun r -> if Result.is_ok r then incr ok2)
  done;
  Engine.run eng;
  check int "retry_after absorbs the burst" 16 !ok2;
  check bool "busy retries happened" true (Session.rpc_busy_retries sess > 0)

let test_busy_error_roundtrip () =
  (match Session.busy_retry_after (Session.busy_error ~retry_after:0.25) with
  | Some f -> check bool "retry_after survives" true (Float.abs (f -. 0.25) < 1e-9)
  | None -> Alcotest.fail "busy error did not parse");
  check bool "bare busy" true (Session.busy_retry_after "busy" = Some 0.0);
  check bool "timeout is not busy" true (Session.busy_retry_after "timeout" = None);
  check bool "prefix must be exact" true (Session.busy_retry_after "busybody" = None)

(* --- The soak ------------------------------------------------------------- *)

let soak_cfg seed =
  {
    Overload.default with
    Overload.seed;
    size = 24;
    producers = [ 20; 21; 22; 23 ];
    duration = 0.08;
    rate = 2.0 *. Overload.master_capacity Overload.default;
    flow = Some { Session.flow_credits = 128; flow_stash = 192 };
    link_limits = Some 128;
    kvs =
      {
        Overload.default.Overload.kvs with
        Kvs.admission_max_intake = 96;
      };
  }

let assert_protected label (r : Overload.report) =
  List.iter (fun v -> Printf.printf "%s violation: %s\n%!" label v) r.Overload.violations;
  check int (label ^ ": no violations") 0 (List.length r.Overload.violations);
  check int (label ^ ": zero acked-write loss") 0 r.Overload.lost_acks;
  check bool (label ^ ": drained") true r.Overload.drained;
  check bool (label ^ ": made progress") true (r.Overload.acked > 0);
  check bool (label ^ ": every op resolved") true
    (r.Overload.offered = r.Overload.acked + r.Overload.shed + r.Overload.failed)

let test_soak seed () =
  let cfg = soak_cfg seed in
  let r = Overload.run cfg in
  assert_protected (Printf.sprintf "seed %d" seed) r;
  check bool "stash bounded" true (r.Overload.flow_stash_hwm <= 192);
  check bool "links bounded" true (r.Overload.link_depth_hwm <= 128);
  check bool "intake bounded" true (r.Overload.intake_hwm <= 96)

let test_soak_deterministic () =
  let a = Overload.run (soak_cfg 42) in
  let b = Overload.run (soak_cfg 42) in
  check int "offered" a.Overload.offered b.Overload.offered;
  check int "acked" a.Overload.acked b.Overload.acked;
  check int "shed" a.Overload.shed b.Overload.shed;
  check int "sim_events" a.Overload.sim_events b.Overload.sim_events;
  check int "final_version" a.Overload.final_version b.Overload.final_version;
  check bool "clock" true (a.Overload.final_clock = b.Overload.final_clock)

let test_soak_bursty () =
  let r = Overload.run { (soak_cfg 7) with Overload.profile = Overload.Bursty } in
  assert_protected "bursty" r

let test_soak_chaos_overlay () =
  let r = Overload.run { (soak_cfg 11) with Overload.chaos_kill = true } in
  assert_protected "chaos overlay" r

let test_unprotected_still_correct () =
  (* Every layer off: queues are unbounded, so occupancy assertions are
     vacuous — but no acked write may be lost and the run must drain. *)
  let cfg =
    {
      (soak_cfg 3) with
      Overload.flow = None;
      link_limits = None;
      kvs = { (soak_cfg 3).Overload.kvs with Kvs.admission_max_intake = 0 };
    }
  in
  let r = Overload.run cfg in
  assert_protected "unprotected" r;
  check int "nothing shed without a gate" 0 r.Overload.shed

let () =
  let seeds = List.init 8 (fun i -> 1 + (13 * i)) in
  Alcotest.run "overload"
    [
      ( "net",
        [
          Alcotest.test_case "block defers without loss" `Quick test_net_block_defers_without_loss;
          Alcotest.test_case "unbounded path unchanged" `Quick test_net_unbounded_unchanged;
        ] );
      ( "admission",
        [
          Alcotest.test_case "sheds and recovers" `Quick test_admission_sheds_and_recovers;
          Alcotest.test_case "busy error roundtrip" `Quick test_busy_error_roundtrip;
        ] );
      ( "soak",
        List.map
          (fun seed ->
            Alcotest.test_case (Printf.sprintf "seed %d bounded, zero loss" seed) `Quick
              (test_soak seed))
          seeds
        @ [
            Alcotest.test_case "same seed, same report" `Quick test_soak_deterministic;
            Alcotest.test_case "bursty profile" `Quick test_soak_bursty;
            Alcotest.test_case "chaos overlay" `Quick test_soak_chaos_overlay;
            Alcotest.test_case "unprotected still correct" `Quick test_unprotected_still_correct;
          ] );
    ]
