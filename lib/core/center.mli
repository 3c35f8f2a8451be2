(** One-call assembly of a simulated HPC center: the comms session, the
    standard comms modules and a root Flux instance managing the whole
    facility under one framework. *)

type t = {
  eng : Flux_sim.Engine.t;
  sess : Flux_cmb.Session.t;
  kvs : Flux_kvs.Kvs_module.t array;
  wexec : Flux_modules.Wexec.t array;
  root : Instance.t;
}

val create :
  ?nodes:int ->
  ?fanout:int ->
  ?policy:string ->
  ?power_budget:float ->
  ?fs_bandwidth:float ->
  ?name:string ->
  unit ->
  t
(** Build a center of [nodes] nodes (default 64) with kvs, barrier and
    wexec loaded. Its root instance grants from a pool of every rank
    and uses the default scheduler cost model. *)

val run : t -> unit
(** Drive the simulation until its queue drains (wraps
    {!Flux_sim.Engine.run}). *)
