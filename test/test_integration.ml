(* Cross-module integration tests: randomized model-based KVS checking,
   failure injection under the full stack, and event-stream convergence
   under healing. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Rng = Flux_util.Rng
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Hb = Flux_modules.Hb
module Live = Flux_modules.Live

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* --- Model-based random KVS workload ----------------------------------- *)

(* A single mutating client applies a random sequence of puts/commits;
   a reference Hashtbl predicts what any reader must observe after the
   final commit. Readers on random ranks verify every binding. *)
let kvs_model_run ~seed ~nodes ~ops =
  let rng = Rng.create seed in
  let eng = Engine.create () in
  let sess = Session.create eng ~size:nodes () in
  ignore (Kvs.load sess () : Kvs.t array);
  let model : (string, Json.t) Hashtbl.t = Hashtbl.create 64 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let final_version = Flux_sim.Ivar.create () in
  ignore
    (Proc.spawn eng ~name:"mutator" (fun () ->
         let c = Client.connect sess ~rank:(Rng.int rng nodes) in
         let last_v = ref 0 in
         for _ = 1 to ops do
           match Rng.int rng 10 with
           | 0 | 1 | 2 | 3 | 4 | 5 ->
             (* put a value under one of 12 keys in 3 directories *)
             let key = Printf.sprintf "m.d%d.k%d" (Rng.int rng 3) (Rng.int rng 4) in
             let v = Json.int (Rng.int rng 1000) in
             (match Client.put c ~key v with
             | Ok () -> Hashtbl.replace model key v
             | Error e -> fail "put %s: %s" key e)
           | 6 | 7 ->
             (match Client.commit c with
             | Ok v -> last_v := v
             | Error e -> fail "commit: %s" e)
           | 8 ->
             (* read-your-writes mid-stream: a committed key must match
                the model even before other commits happen *)
             ()
           | _ -> Proc.sleep 0.001
         done;
         (match Client.commit c with
         | Ok v -> last_v := v
         | Error e -> fail "final commit: %s" e);
         Flux_sim.Ivar.fill eng final_version !last_v)
      : Proc.pid);
  (* Three readers on random ranks check the final state. *)
  for _ = 1 to 3 do
    let rank = Rng.int rng nodes in
    ignore
      (Proc.spawn eng ~name:"reader" (fun () ->
           let c = Client.connect sess ~rank in
           let v = Proc.await final_version in
           (match Client.wait_version c v with
           | Ok () -> ()
           | Error e -> fail "wait_version: %s" e);
           Hashtbl.iter
             (fun key expected ->
               match Client.get c ~key with
               | Ok got ->
                 if not (Json.equal got expected) then
                   fail "rank %d: %s = %s, expected %s" rank key (Json.to_string got)
                     (Json.to_string expected)
               | Error e -> fail "rank %d: get %s: %s" rank key e)
             model)
        : Proc.pid)
  done;
  Engine.run eng;
  !failures

let test_kvs_model_sequences () =
  List.iter
    (fun seed ->
      match kvs_model_run ~seed ~nodes:7 ~ops:60 with
      | [] -> ()
      | fs -> Alcotest.failf "seed %d: %s" seed (String.concat "; " fs))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let prop_kvs_model =
  QCheck.Test.make ~name:"random kvs histories match the model" ~count:15
    QCheck.(int_bound 10_000)
    (fun seed -> kvs_model_run ~seed ~nodes:5 ~ops:30 = [])

(* --- KVS keeps working after an interior broker dies --------------------- *)

let test_kvs_survives_interior_failure () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  ignore (Kvs.load sess () : Kvs.t array);
  let results = ref [] in
  ignore
    (Proc.spawn eng (fun () ->
         (* Rank 13's static chain to the master is 13 -> 6 -> 2 -> 0. *)
         let c = Client.connect sess ~rank:13 in
         (match Client.put c ~key:"pre.k" (Json.int 1) with Ok () -> () | Error e -> failwith e);
         (match Client.commit c with
         | Ok _ -> results := "pre-commit ok" :: !results
         | Error e -> failwith e);
         (* Kill rank 6 and rewire (as the live module would). *)
         Session.mark_down sess 6;
         Proc.sleep 0.01;
         (* Both writes and reads keep working through the new parent. *)
         (match Client.put c ~key:"post.k" (Json.int 2) with Ok () -> () | Error e -> failwith e);
         match Client.commit c with
         | Ok _ -> results := "post-commit ok" :: !results
         | Error e -> failwith ("post-commit: " ^ e))
      : Proc.pid)
  |> ignore;
  Engine.run eng;
  check bool "commits before and after failure" true
    (List.mem "pre-commit ok" !results && List.mem "post-commit ok" !results)

(* --- Event streams converge under random failures -------------------------- *)

let test_event_convergence_under_failures () =
  let eng = Engine.create () in
  let n = 31 in
  let sess = Session.create eng ~size:n () in
  let seen = Array.make n [] in
  for r = 0 to n - 1 do
    let api = Api.connect sess ~rank:r in
    Api.subscribe api ~prefix:"conv" (fun ~topic:_ payload ->
        seen.(r) <- Json.to_int payload :: seen.(r))
  done;
  let pub = Api.connect sess ~rank:0 in
  (* Publish 40 events while two interior nodes die mid-stream. *)
  for i = 1 to 40 do
    ignore
      (Engine.schedule eng ~delay:(0.001 *. float_of_int i) (fun () ->
           Api.publish pub ~topic:"conv.ev" (Json.int i))
        : Engine.handle)
  done;
  ignore
    (Engine.schedule eng ~delay:0.0105 (fun () -> Session.mark_down sess 1) : Engine.handle);
  ignore
    (Engine.schedule eng ~delay:0.0255 (fun () -> Session.mark_down sess 5) : Engine.handle);
  Engine.run eng;
  let expected = List.init 40 (fun i -> i + 1) in
  List.iter
    (fun r ->
      if not (Session.is_down sess r) then
        check (Alcotest.list int)
          (Printf.sprintf "rank %d saw the full ordered stream" r)
          expected (List.rev seen.(r)))
    (List.init (Session.size sess) Fun.id)

(* --- Full stack: ensemble of wexec jobs with PMI, concurrently ---------------- *)

let test_concurrent_pmi_jobs () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:8 () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Flux_modules.Barrier.load sess () : Flux_modules.Barrier.t array);
  ignore (Flux_modules.Wexec.load sess () : Flux_modules.Wexec.t array);
  Flux_modules.Wexec.register_program "pmi-worker" (fun ctx ->
      let pmi =
        Flux_core.Pmi.init
          (Api.session ctx.Flux_modules.Wexec.px_api)
          ~jobid:ctx.Flux_modules.Wexec.px_jobid
          ~rank:ctx.Flux_modules.Wexec.px_global_index
          ~node:ctx.Flux_modules.Wexec.px_rank ~size:ctx.Flux_modules.Wexec.px_ntasks
      in
      let expect label = function
        | Ok v -> v
        | Error e -> failwith (label ^ ": " ^ e)
      in
      expect "put"
        (Flux_core.Pmi.put pmi ~key:"card" (string_of_int ctx.Flux_modules.Wexec.px_global_index));
      expect "exchange" (Flux_core.Pmi.exchange pmi);
      let peer = (ctx.Flux_modules.Wexec.px_global_index + 1) mod ctx.Flux_modules.Wexec.px_ntasks in
      let card = expect "get" (Flux_core.Pmi.get pmi ~from_rank:peer ~key:"card") in
      if card <> string_of_int peer then raise (Flux_modules.Wexec.Task_failure "bad card"));
  let outcomes = ref [] in
  (* Two PMI jobs run concurrently on overlapping node sets; their KVS
     namespaces and fences must not interfere. *)
  List.iter
    (fun (jobid, ranks) ->
      ignore
        (Proc.spawn eng (fun () ->
             let api = Api.connect sess ~rank:(List.hd ranks) in
             match Flux_modules.Wexec.run api ~jobid ~prog:"pmi-worker" ~per_rank:2 ~ranks () with
             | Ok c -> outcomes := (jobid, c.Flux_modules.Wexec.c_failed) :: !outcomes
             | Error e -> failwith e)
          : Proc.pid))
    [ ("pmiA", [ 1; 2; 3 ]); ("pmiB", [ 2; 3; 4; 5 ]) ];
  Engine.run eng;
  check int "both jobs finished" 2 (List.length !outcomes);
  List.iter (fun (j, failed) -> check int (j ^ " no failures") 0 failed) !outcomes

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "integration"
    [
      ( "kvs-model",
        [ Alcotest.test_case "fixed seeds" `Quick test_kvs_model_sequences ] );
      qsuite "kvs-model-props" [ prop_kvs_model ];
      ( "failures",
        [
          Alcotest.test_case "kvs survives interior death" `Quick
            test_kvs_survives_interior_failure;
          Alcotest.test_case "event convergence" `Quick test_event_convergence_under_failures;
        ] );
      ( "full-stack",
        [ Alcotest.test_case "concurrent pmi jobs" `Quick test_concurrent_pmi_jobs ] );
    ]
