type elasticity = Rigid | Moldable of int * int | Malleable of int * int

type t = {
  nnodes : int;
  walltime_est : float;
  power_per_node : float;
  fs_bandwidth : float;
  elasticity : elasticity;
  user : string;
  priority : int;
}

let make ?(walltime_est = 3600.0) ?(power_per_node = 0.0) ?(fs_bandwidth = 0.0)
    ?(elasticity = Rigid) ?(user = "default") ?(priority = 0) ~nnodes () =
  {
    nnodes;
    walltime_est;
    power_per_node;
    fs_bandwidth;
    elasticity;
    user;
    priority;
  }

let min_nodes t =
  match t.elasticity with
  | Rigid -> t.nnodes
  | Moldable (min_n, _) | Malleable (min_n, _) -> min_n

let max_nodes t =
  match t.elasticity with
  | Rigid -> t.nnodes
  | Moldable (_, max_n) | Malleable (_, max_n) -> max_n

let power_needed t ~nnodes = float_of_int nnodes *. t.power_per_node

let validate t =
  if t.nnodes <= 0 then Error "nnodes must be positive"
  else if t.walltime_est <= 0.0 then Error "walltime_est must be positive"
  else if t.power_per_node < 0.0 then Error "power_per_node must be non-negative"
  else if t.fs_bandwidth < 0.0 then Error "fs_bandwidth must be non-negative"
  else
    match t.elasticity with
    | Rigid -> Ok ()
    | Moldable (min_n, max_n) | Malleable (min_n, max_n) ->
      if min_n <= 0 || max_n < min_n then Error "bad elasticity bounds"
      else if t.nnodes < min_n || t.nnodes > max_n then
        Error "nnodes outside elasticity bounds"
      else Ok ()
