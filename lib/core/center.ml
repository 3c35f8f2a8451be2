module Engine = Flux_sim.Engine
module Session = Flux_cmb.Session
module Kvs = Flux_kvs.Kvs_module

type t = {
  eng : Engine.t;
  sess : Session.t;
  kvs : Kvs.t array;
  wexec : Flux_modules.Wexec.t array;
  resources : Resource.t;
  root : Instance.t;
}

let create ?(nodes = 64) ?(fanout = 2) ?(policy = "fcfs") ?power_budget ?fs_bandwidth
    ?(provenance = false) ?(name = "center") () =
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout ~size:nodes () in
  let kvs = Kvs.load sess () in
  ignore (Flux_modules.Barrier.load sess () : Flux_modules.Barrier.t array);
  let wexec = Flux_modules.Wexec.load sess () in
  let resources =
    Resource.center ~name
      [
        Resource.cluster ~nnodes:nodes ~name:(name ^ "-cluster") ();
        Resource.filesystem ~name:(name ^ "-lustre") ();
      ]
  in
  let root =
    Instance.create_root sess ~policy ?power_budget ?fs_bandwidth ~provenance ~name ()
  in
  { eng; sess; kvs; wexec; resources; root }

let run t = Engine.run t.eng

let kvs_client t ~rank = Flux_kvs.Client.connect t.sess ~rank
