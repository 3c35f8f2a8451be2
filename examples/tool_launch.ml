(* Tool co-location: the productivity story (Challenge 4).

   An MPI-style application bootstraps through PMI-over-KVS; a debugger
   daemon is then bulk-launched onto the application's nodes through
   wexec, reads the application's connection cards from the KVS (secure
   third-party access to a running job), and the log comms module
   aggregates diagnostics — duplicates folded — into the session root's
   log, with a circular-buffer dump on a fault event.

   Run with: dune exec examples/tool_launch.exe *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Barrier = Flux_modules.Barrier
module Wexec = Flux_modules.Wexec
module Log_mod = Flux_modules.Log_mod
module Pmi = Flux_core.Pmi

let app_ranks = [ 2; 3; 4; 5 ]
let tasks_per_rank = 2

let expect label = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" label e)

(* The "MPI application": each task publishes its endpoint via PMI,
   exchanges, then computes. *)
let () =
  Wexec.register_program "mpi-app" (fun ctx ->
      let size = ctx.Wexec.px_ntasks in
      let pmi =
        Pmi.init
          (Api.session ctx.Wexec.px_api)
          ~jobid:ctx.Wexec.px_jobid ~rank:ctx.Wexec.px_global_index
          ~node:ctx.Wexec.px_rank ~size
      in
      expect "pmi put"
        (Pmi.put pmi ~key:"endpoint" (Printf.sprintf "nid%d:%d" ctx.Wexec.px_rank (9000 + ctx.Wexec.px_global_index)));
      expect "pmi exchange" (Pmi.exchange pmi);
      (* Every task can now reach every peer. *)
      let peer = (ctx.Wexec.px_global_index + 1) mod size in
      let addr = expect "pmi get" (Pmi.get pmi ~from_rank:peer ~key:"endpoint") in
      ctx.Wexec.px_printf (Printf.sprintf "task %d wired to peer %d at %s" ctx.Wexec.px_global_index peer addr);
      Proc.sleep 0.5;
      expect "pmi finalize" (Pmi.finalize pmi))

(* The co-located tool: one daemon per application node; it reads the
   application's PMI cards from the KVS and logs what it attaches to. *)
let () =
  Wexec.register_program "debugger-daemon" (fun ctx ->
      let kvs = ctx.Wexec.px_kvs in
      let appjob = Json.to_string_v (Json.member "appjob" ctx.Wexec.px_args) in
      let found = ref 0 in
      for r = 0 to (tasks_per_rank * List.length app_ranks) - 1 do
        match Client.get kvs ~key:(Printf.sprintf "pmi.%s.r%d.endpoint" appjob r) with
        | Ok _ -> incr found
        | Error _ -> ()
      done;
      Log_mod.log ctx.Wexec.px_api ~level:Log_mod.Info
        (Printf.sprintf "debugger attached to %d app endpoints" !found);
      ctx.Wexec.px_printf (Printf.sprintf "daemon on rank %d found %d endpoints" ctx.Wexec.px_rank !found))

let () =
  let eng = Engine.create () in
  let sess = Session.create eng ~size:8 () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Barrier.load sess () : Barrier.t array);
  ignore (Wexec.load sess () : Wexec.t array);
  let logm = Log_mod.load sess () in
  ignore
    (Proc.spawn eng (fun () ->
         let api = Api.connect sess ~rank:0 in
         (* 1. Launch the application. *)
         ignore
           (Proc.spawn eng (fun () ->
                let c =
                  expect "app run"
                    (Wexec.run api ~jobid:"app1" ~prog:"mpi-app" ~per_rank:tasks_per_rank
                       ~ranks:app_ranks ())
                in
                Printf.printf "application done: %d tasks, %d failed\n" c.Wexec.c_ntasks
                  c.Wexec.c_failed)
             : Proc.pid);
         (* 2. Give the app a moment to publish its PMI cards, then
            co-launch the tool daemons on the same nodes. *)
         Proc.sleep 0.3;
         let c =
           expect "tool run"
             (Wexec.run api ~jobid:"tool1" ~prog:"debugger-daemon"
                ~args:(Json.obj [ ("appjob", Json.string "app1") ])
                ~ranks:app_ranks ())
         in
         Printf.printf "tool done: %d daemons, %d failed\n" c.Wexec.c_ntasks c.Wexec.c_failed;
         (* 3. A fault event dumps every rank's debug ring buffer. *)
         Log_mod.dump_buffers api;
         Proc.sleep 0.1)
      : Proc.pid);
  Engine.run eng;
  print_endline "\nsession root log (reduced):";
  List.iter
    (fun (e : Log_mod.entry) ->
      Printf.printf "  [%s] rank%d x%d: %s\n"
        (Log_mod.level_to_string e.Log_mod.e_level)
        e.Log_mod.e_rank e.Log_mod.e_count e.Log_mod.e_text)
    (Log_mod.root_log logm.(0));
  Printf.printf "done (virtual time %.3f s)\n" (Engine.now eng)
