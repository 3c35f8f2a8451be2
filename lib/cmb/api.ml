module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Ivar = Flux_sim.Ivar
module Proc = Flux_sim.Proc

type t = { sess : Session.t; r : int; ipc : float }

let connect sess ~rank =
  let cfg = Flux_sim.Net.default_config in
  { sess; r = rank; ipc = cfg.Flux_sim.Net.local_delivery }

let rank t = t.r
let session t = t.sess

let broker t = Session.broker t.sess t.r

let rpc_async t ?timeout ?attempts ?idempotent ?trace_ctx ~topic payload ~reply =
  let eng = Session.engine t.sess in
  (* Model the UNIX-domain-socket hop in both directions. *)
  ignore
    (Engine.schedule eng ~delay:t.ipc (fun () ->
         Session.request_up (broker t) ?timeout ?attempts ?idempotent ?trace_ctx ~topic
           payload ~reply:(fun r ->
             ignore (Engine.schedule eng ~delay:t.ipc (fun () -> reply r) : Engine.handle)))
      : Engine.handle)

let rpc t ?timeout ?idempotent ?trace_ctx ~topic payload =
  let iv = Ivar.create () in
  let eng = Session.engine t.sess in
  rpc_async t ?timeout ?idempotent ?trace_ctx ~topic payload ~reply:(fun r ->
      Ivar.fill eng iv r);
  Proc.await iv

let rpc_rank t ~dst ~topic payload =
  let iv = Ivar.create () in
  let eng = Session.engine t.sess in
  ignore
    (Engine.schedule eng ~delay:t.ipc (fun () ->
         Session.rpc_rank (broker t) ~dst ~topic payload
           ~reply:(fun r ->
             ignore
               (Engine.schedule eng ~delay:t.ipc (fun () -> Ivar.fill eng iv r)
                 : Engine.handle)))
      : Engine.handle);
  Proc.await iv

let publish t ~topic payload =
  let eng = Session.engine t.sess in
  ignore
    (Engine.schedule eng ~delay:t.ipc (fun () -> Session.publish (broker t) ~topic payload)
      : Engine.handle)

let deliver t cb (ev : Message.t) =
  ignore
    (Engine.schedule (Session.engine t.sess) ~delay:t.ipc (fun () ->
         cb ~topic:ev.Message.topic ev.Message.payload)
      : Engine.handle)

let subscribe t ~prefix cb = Session.subscribe (broker t) ~prefix (deliver t cb)
let subscribe_once t ~topic cb = Session.subscribe_once (broker t) ~topic (deliver t cb)
