(* Quickstart: bring up a comms session, talk to the KVS, synchronize
   with a barrier, and launch a parallel program with wexec.

   Run with: dune exec examples/quickstart.exe *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Barrier = Flux_modules.Barrier
module Wexec = Flux_modules.Wexec

let expect label = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" label e)

(* A "program" for wexec to launch: each task greets and reports. *)
let () =
  Wexec.register_program "greeter" (fun ctx ->
      Proc.sleep 0.01;
      ctx.Wexec.px_printf
        (Printf.sprintf "hello from task %d/%d on rank %d" ctx.Wexec.px_global_index
           ctx.Wexec.px_ntasks ctx.Wexec.px_rank))

let () =
  (* 1. A 16-node comms session: one CMB broker per node, three overlay
     planes, kvs + barrier + wexec comms modules loaded. *)
  let eng = Engine.create () in
  let sess = Session.create eng ~size:16 () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Barrier.load sess () : Barrier.t array);
  ignore (Wexec.load sess () : Wexec.t array);
  print_endline "session up: 16 brokers, binary RPC tree, kvs/barrier/wexec loaded";

  (* 2. Two client processes on different nodes share state through the
     KVS with causal consistency. *)
  let version = Flux_sim.Ivar.create () in
  ignore
    (Proc.spawn eng ~name:"writer" (fun () ->
         let c = Client.connect sess ~rank:3 in
         expect "put" (Client.put c ~key:"demo.message" (Json.string "flux works"));
         expect "put" (Client.put c ~key:"demo.answer" (Json.int 42));
         let v = expect "commit" (Client.commit c) in
         Printf.printf "writer(rank 3): committed KVS version %d\n" v;
         Flux_sim.Ivar.fill eng version v)
      : Proc.pid);
  ignore
    (Proc.spawn eng ~name:"reader" (fun () ->
         let c = Client.connect sess ~rank:14 in
         let v = Proc.await version in
         expect "wait_version" (Client.wait_version c v);
         let msg = expect "get" (Client.get c ~key:"demo.message") in
         let answer = expect "get" (Client.get c ~key:"demo.answer") in
         Printf.printf "reader(rank 14): demo.message=%s demo.answer=%s\n"
           (Json.to_string msg) (Json.to_string answer))
      : Proc.pid);

  (* 3. A collective barrier across eight processes. *)
  let released = ref 0 in
  for r = 0 to 7 do
    ignore
      (Proc.spawn eng (fun () ->
           let api = Api.connect sess ~rank:(r * 2) in
           Proc.sleep (0.001 *. float_of_int r);
           expect "barrier" (Barrier.enter api ~name:"demo-barrier" ~nprocs:8);
           incr released)
        : Proc.pid)
  done;

  (* 4. Launch 2 tasks x 4 nodes of "greeter" in bulk; stdout is
     captured in the KVS under the job's record directory,
     [Wexec.job_key jobid]. *)
  ignore
    (Proc.spawn eng ~name:"launcher" (fun () ->
         let api = Api.connect sess ~rank:0 in
         let c =
           expect "wexec.run"
             (Wexec.run api ~jobid:"demo-job" ~prog:"greeter" ~per_rank:2
                ~ranks:[ 4; 5; 6; 7 ] ())
         in
         Printf.printf "wexec: %d tasks completed (%d failed)\n" c.Wexec.c_ntasks
           c.Wexec.c_failed;
         let kvs = Client.connect sess ~rank:0 in
         match Client.get kvs ~key:(Wexec.job_key "demo-job" ^ ".5-1.stdout") with
         | Ok (Json.String out) -> Printf.printf "captured stdout of task 5-1: %s" out
         | Ok _ | Error _ -> print_endline "stdout missing?")
      : Proc.pid);

  Engine.run eng;
  Printf.printf "barrier released %d/8 processes together\n" !released;
  Printf.printf "done (virtual time %.3f s)\n" (Engine.now eng)
