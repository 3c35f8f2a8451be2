type state =
  | Pending
  | Allocated
  | Running
  | Complete
  | Failed of string
  | Cancelled

type payload =
  | Sleep of float
  | App of { prog : string; args : Flux_json.Json.t; per_rank : int; duration : float }
  | Child of { policy : string; workload : submission list }
  | Nested of { policy : string; workload : submission list }

and submission = { sub_after : float; sub_spec : Jobspec.t; sub_payload : payload }

type t = {
  jid : string;
  spec : Jobspec.t;
  job_payload : payload;
  mutable jstate : state;
  mutable submit_time : float;
  mutable start_time : float;
  mutable end_time : float;
  mutable granted_nodes : int list;
}

let create ~jid ~spec ~payload ~now =
  {
    jid;
    spec;
    job_payload = payload;
    jstate = Pending;
    submit_time = now;
    start_time = Float.nan;
    end_time = Float.nan;
    granted_nodes = [];
  }

let state_to_string = function
  | Pending -> "pending"
  | Allocated -> "allocated"
  | Running -> "running"
  | Complete -> "complete"
  | Failed e -> "failed:" ^ e
  | Cancelled -> "cancelled"

let is_terminal = function
  | Complete | Failed _ | Cancelled -> true
  | Pending | Allocated | Running -> false

let legal_transition from into =
  match (from, into) with
  | Pending, (Allocated | Cancelled) -> true
  | Pending, Failed _ -> true
  | Allocated, (Running | Cancelled) -> true
  | Allocated, Failed _ -> true
  | Running, (Complete | Cancelled) -> true
  | Running, Failed _ -> true
  | _, _ -> false

let set_state t ~now s =
  if not (legal_transition t.jstate s) then
    invalid_arg
      (Printf.sprintf "Job.set_state: illegal transition %s -> %s for %s"
         (state_to_string t.jstate) (state_to_string s) t.jid);
  (match s with
  | Running -> t.start_time <- now
  | Complete | Failed _ | Cancelled -> t.end_time <- now
  | Pending | Allocated -> ());
  t.jstate <- s

let wait_time t =
  if Float.is_nan t.start_time then invalid_arg "Job.wait_time: not started";
  t.start_time -. t.submit_time

let runtime t =
  if Float.is_nan t.end_time || Float.is_nan t.start_time then
    invalid_arg "Job.runtime: not finished";
  t.end_time -. t.start_time
