module Engine = Flux_sim.Engine
module Session = Flux_cmb.Session
module Kvs = Flux_kvs.Kvs_module

type t = {
  eng : Engine.t;
  sess : Session.t;
  kvs : Kvs.t array;
  wexec : Flux_modules.Wexec.t array;
  root : Instance.t;
}

let create ?(nodes = 64) ?(fanout = 2) ?(policy = "fcfs") ?power_budget ?fs_bandwidth
    ?(name = "center") () =
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout ~size:nodes () in
  let kvs = Kvs.load sess () in
  ignore (Flux_modules.Barrier.load sess () : Flux_modules.Barrier.t array);
  let wexec = Flux_modules.Wexec.load sess () in
  let root =
    Instance.create_root sess ~policy ?power_budget ?fs_bandwidth ~name ()
  in
  { eng; sess; kvs; wexec; root }

let run t = Engine.run t.eng
