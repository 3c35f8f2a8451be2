module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Rollup = Flux_cmb.Rollup

type sample = { s_min : float; s_max : float; s_sum : float; s_count : int }

let sample_of_value v = { s_min = v; s_max = v; s_sum = v; s_count = 1 }

let sample_merge a b =
  {
    s_min = Float.min a.s_min b.s_min;
    s_max = Float.max a.s_max b.s_max;
    s_sum = a.s_sum +. b.s_sum;
    s_count = a.s_count + b.s_count;
  }

let sample_to_json s =
  Json.obj
    [
      ("min", Json.float s.s_min);
      ("max", Json.float s.s_max);
      ("sum", Json.float s.s_sum);
      ("count", Json.int s.s_count);
    ]

let sample_of_json j =
  {
    s_min = Json.to_float (Json.member "min" j);
    s_max = Json.to_float (Json.member "max" j);
    s_sum = Json.to_float (Json.member "sum" j);
    s_count = Json.to_int (Json.member "count" j);
  }

let samplers : (string, rank:int -> epoch:int -> float) Hashtbl.t = Hashtbl.create 8

let register_sampler name f = Hashtbl.replace samplers name f

type t = {
  b : Session.broker;
  mutable script : string option; (* from conf.mon.script via KVS watch *)
  mutable latest : (int * sample) option;
  mutable taken : int;
}

let latest_aggregate t = t.latest
let samples_taken t = t.taken

(* A kvs.mput of one key: the KVS's atomic put-and-commit. *)
let mput key v =
  Json.obj [ ("bindings", Json.list [ Json.obj [ ("key", Json.string key); ("v", v) ] ]) ]

(* Rank 0 stores each finalized epoch under mon.<script>.<epoch>. *)
let store t epoch s =
  t.latest <- Some (epoch, s);
  match t.script with
  | Some name ->
    Session.request_up t.b ~topic:"kvs.mput"
      (mput (Printf.sprintf "mon.%s.%d" name epoch) (sample_to_json s))
      ~reply:(fun _ -> ())
  | None -> ()

let on_heartbeat t rollup epoch =
  match t.script with
  | None -> ()
  | Some name -> (
    match Hashtbl.find_opt samplers name with
    | None -> ()
    | Some f ->
      t.taken <- t.taken + 1;
      let rank = Session.rank t.b in
      Rollup.contribute rollup ~rank ~epoch (sample_of_value (f ~rank ~epoch)))

(* Activation rides the KVS: every setroot, re-read the config key
   (cheap: it is cached after the first fault-in). *)
let reread_script t _ =
  Session.request_up t.b ~idempotent:true ~topic:"kvs.get"
    (Json.obj [ ("key", Json.string "conf.mon.script") ])
    ~reply:(fun r ->
      match r with
      | Ok payload -> (
        match Json.member "v" payload with
        | Json.String s when s <> "" -> t.script <- Some s
        | _ -> t.script <- None)
      | Error _ -> t.script <- None)

let load sess ~(hb : Hb.t array) () =
  let instances =
    Array.init (Session.size sess) (fun r ->
        { b = Session.broker sess r; script = None; latest = None; taken = 0 })
  in
  let rollup =
    Rollup.create sess ~service:"mon" ~window:(Hb.period hb.(0) /. 2.0) ~merge:sample_merge
      ~to_fields:(fun s -> [ ("sample", sample_to_json s) ])
      ~of_json:(fun p -> sample_of_json (Json.member "sample" p))
      ~finalize:(store instances.(0)) ()
  in
  Array.iter (fun t -> Session.subscribe t.b ~prefix:"kvs.setroot" (reread_script t)) instances;
  Array.iteri (fun r t -> Hb.on_pulse hb.(r) (on_heartbeat t rollup)) instances;
  instances

let set_script api value =
  Result.map ignore (Flux_cmb.Api.rpc api ~topic:"kvs.mput" (mput "conf.mon.script" value))

let activate api ~script = set_script api (Json.string script)
let deactivate api = set_script api (Json.string "")
