module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Engine = Flux_sim.Engine

type t = {
  b : Session.broker;
  hb_period : float;
  mutable last_epoch : int;
  mutable callbacks : (int -> unit) list;
  mutable timer : Engine.handle option; (* root only *)
}

let epoch t = t.last_epoch
let period t = t.hb_period

let on_pulse t cb = t.callbacks <- cb :: t.callbacks

let module_of t =
  {
    Session.mod_name = "hb";
    on_request =
      (fun req ->
        Session.respond_error t.b req "hb: no request interface";
        Session.Consumed);
  }

let pulse t (ev : Message.t) =
  let e = Json.to_int (Json.member "epoch" ev.Message.payload) in
  t.last_epoch <- e;
  List.iter (fun cb -> cb e) t.callbacks

let load sess ?(period = 0.1) () =
  let instances =
    Array.init (Session.size sess) (fun r ->
        {
          b = Session.broker sess r;
          hb_period = period;
          last_epoch = 0;
          callbacks = [];
          timer = None;
        })
  in
  Session.load_module sess (fun b -> module_of instances.(Session.rank b));
  Array.iter (fun t -> Session.subscribe t.b ~prefix:"hb.pulse" (pulse t)) instances;
  let root = instances.(0) in
  let counter = ref 0 in
  root.timer <-
    Some
      (Engine.every (Session.engine sess) ~period (fun () ->
           incr counter;
           Session.publish root.b ~topic:"hb.pulse"
             (Json.obj [ ("epoch", Json.int !counter) ])));
  instances

let stop instances =
  match instances.(0).timer with
  | Some h ->
    Engine.cancel h;
    instances.(0).timer <- None
  | None -> ()
