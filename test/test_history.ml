(* The checker every acked-write harness shares: each case plants one
   anomaly on a small live session and asserts exactly the violations
   it causes, so an audit that stopped comparing would fail here. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Tracer = Flux_trace.Tracer
module Flight = Flux_trace.Flight
module History = Flux_harness.History

let check = Alcotest.check
let int = Alcotest.int
let strings = Alcotest.(list string)

let session () =
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout:2 ~size:4 () in
  ignore (Kvs.load sess () : Kvs.t array);
  (eng, sess)

let stamp eng = Printf.sprintf "t=%.3f " (Engine.now eng)

(* Run [verify] from rank 3 once the engine is idle; returns its count. *)
let verify eng sess h =
  let n = ref (-1) in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:3 in
         n := History.verify h ~label:"verify" (fun key -> Client.get c ~key))
      : Proc.pid);
  Engine.run eng;
  !n

let test_unreadable () =
  let eng, sess = session () in
  let h = History.create sess in
  History.ack h "k.never" (Json.int 1);
  check int "the key was read" 1 (verify eng sess h);
  match History.violations h with
  | [ v ] ->
    let prefix = stamp eng ^ "verify: key k.never unreadable: " in
    let suffix = " (acked at t=0.000)" in
    if not (String.starts_with ~prefix v && String.ends_with ~suffix v) then
      Alcotest.failf "unexpected violation %S" v
  | vs -> Alcotest.failf "want one violation, got %d" (List.length vs)

let test_diverged () =
  let eng, sess = session () in
  let h = History.create sess in
  let acked_at = ref "" in
  ignore
    (Proc.spawn eng (fun () ->
         let c = Client.connect sess ~rank:2 in
         ignore (Client.put c ~key:"k.two" (Json.int 1) : (unit, string) result);
         ignore (Client.commit c : (int, string) result);
         acked_at := Printf.sprintf "%.3f" (Engine.now eng);
         History.ack h "k.two" (Json.int 2))
      : Proc.pid);
  Engine.run eng;
  check int "the key was read" 1 (verify eng sess h);
  check strings "diverged"
    [ Printf.sprintf "%sverify: key k.two diverged (acked at t=%s)" (stamp eng) !acked_at ]
    (History.violations h)

let test_unknown_skipped () =
  let eng, sess = session () in
  let h = History.create sess in
  History.ack h "k.maybe" (Json.int 3);
  History.unknown h "k.maybe";
  check int "nothing read" 0 (verify eng sess h);
  check strings "no violation" [] (History.violations h)

let test_versions () =
  let _, sess = session () in
  let h = History.create sess in
  History.observe h ~who:"rank 1" ~label:"get_version" 5;
  History.observe h ~who:"rank 1" ~label:"get_version" 3;
  (* Another client's horizon is its own. *)
  History.observe h ~who:"rank 2" ~label:"get_version" 1;
  check strings "one regression" [ "t=0.000 rank 1: get_version version regressed 5 -> 3" ]
    (History.violations h);
  (* The regression left the horizon at 5, so a commit at 5 is stale. *)
  History.committed h ~who:"rank 1" 5;
  History.committed h ~who:"rank 2" 2;
  check strings "a commit not newer than seen"
    [
      "t=0.000 rank 1: get_version version regressed 5 -> 3";
      "t=0.000 rank 1: commit version 5 not newer than seen 5";
    ]
    (History.violations h)

let test_kill_revive () =
  let eng, sess = session () in
  let h = History.create sess in
  ignore
    (Proc.spawn eng (fun () ->
         Proc.sleep 1.0;
         History.outage h 3 ~for_:0.5)
      : Proc.pid);
  ignore
    (Proc.spawn eng (fun () ->
         Proc.sleep 1.2;
         check (Alcotest.list int) "rank 3 is down" [ 3 ] (History.dead h);
         History.kill h 3;
         History.revive h 1;
         check int "killing a dead rank is no kill" 1 (History.kills h);
         check int "reviving a live rank is no revive" 0 (History.revives h);
         check (Alcotest.list int) "still only rank 3 down" [ 3 ] (History.dead h))
      : Proc.pid);
  Engine.run eng;
  check int "one kill" 1 (History.kills h);
  check int "one revive" 1 (History.revives h);
  check (Alcotest.list int) "nothing down" [] (History.dead h);
  check Alcotest.bool "rank 3 is up" false (Session.is_down sess 3);
  check Alcotest.(option (float 0.0)) "first kill time" (Some 1.0) (History.first_kill h)

let test_stamps_and_one_dump () =
  let eng, sess = session () in
  let tr = Tracer.create ~now:(fun () -> Engine.now eng) () in
  let flight = Flight.create tr in
  let h = History.create ~flight sess in
  ignore (Engine.schedule eng ~delay:1.5 (fun () -> History.violate h "first") : Engine.handle);
  ignore
    (Engine.schedule eng ~delay:2.25 (fun () -> History.violate h "second %d" 2) : Engine.handle);
  Engine.run eng;
  check strings "stamped, oldest first" [ "t=1.500 first"; "t=2.250 second 2" ]
    (History.violations h);
  match Flight.dumps flight with
  | [ d ] ->
    check Alcotest.string "dumped at the first" "guarantee tripped: first" d.Flight.d_reason
  | ds -> Alcotest.failf "want one flight dump, got %d" (List.length ds)

let () =
  Alcotest.run "history"
    [
      ( "acked writes",
        [
          Alcotest.test_case "acked but never written: unreadable" `Quick test_unreadable;
          Alcotest.test_case "acked with another value: diverged" `Quick test_diverged;
          Alcotest.test_case "marked unknown: skipped" `Quick test_unknown_skipped;
        ] );
      ( "versions",
        [ Alcotest.test_case "regression and stale commit" `Quick test_versions ] );
      ( "faults",
        [
          Alcotest.test_case "kill, revive and outage" `Quick test_kill_revive;
          Alcotest.test_case "t= stamps and one flight dump" `Quick test_stamps_and_one_dump;
        ] );
    ]
