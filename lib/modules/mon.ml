module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Topic = Flux_cmb.Topic
module Engine = Flux_sim.Engine

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

(* Per-epoch reduction state. *)
type epoch_acc = {
  mutable acc : sample option;
  mutable heard : int list;
  mutable timer_armed : bool;
}

type t = {
  b : Session.broker;
  master : bool;
  mutable script : string option; (* from conf.mon.script via KVS watch *)
  epochs : (int, epoch_acc) Hashtbl.t;
  mutable latest : (int * sample) option;
  mutable taken : int;
  window : float;
}

let latest_aggregate t = t.latest
let samples_taken t = t.taken

let acc_get t epoch =
  match Hashtbl.find_opt t.epochs epoch with
  | Some a -> a
  | None ->
    let a = { acc = None; heard = []; timer_armed = false } in
    Hashtbl.replace t.epochs epoch a;
    a

let kvs_put_root t ~key value =
  (* The root stores the aggregate under mon.<script>.<epoch> through
     its local kvs module's atomic put-and-commit. *)
  Session.request_up t.b ~topic:"kvs.mput"
    (Json.obj
       [ ("bindings", Json.list [ Json.obj [ ("key", Json.string key); ("v", value) ] ]) ])
    ~reply:(fun _ -> ())

let forward t epoch a =
  match a.acc with
  | None -> ()
  | Some s ->
    a.acc <- None;
    Hashtbl.remove t.epochs epoch;
    if t.master then begin
      t.latest <- Some (epoch, s);
      match t.script with
      | Some name ->
        kvs_put_root t ~key:(Printf.sprintf "mon.%s.%d" name epoch) (sample_to_json s)
      | None -> ()
    end
    else
      (* Safe to retransmit: the parent folds at most one contribution
         per (child, epoch) — see the [heard] guard in [contribute]. *)
      Session.request_from_module t.b ~idempotent:true ~topic:"mon.reduce"
        (Json.obj [ ("epoch", Json.int epoch); ("sample", sample_to_json s) ])
        ~reply:(fun _ -> ())

let check_ready t epoch a =
  let children = Session.tree_children t.b in
  let all_heard = List.for_all (fun c -> List.mem c a.heard) children in
  if all_heard then forward t epoch a

let arm_timer t epoch a =
  if not a.timer_armed then begin
    a.timer_armed <- true;
    ignore
      (Engine.schedule (Session.b_engine t.b) ~delay:t.window (fun () -> forward t epoch a)
        : Engine.handle)
  end

let contribute t ~epoch ~from_child s =
  (* Each child forwards once per epoch, so a second arrival from the
     same child is a retransmitted duplicate: drop it instead of
     double-merging its sample. *)
  let duplicate =
    match from_child with Some c -> List.mem c (acc_get t epoch).heard | None -> false
  in
  if not duplicate then begin
    let a = acc_get t epoch in
    a.acc <- (match a.acc with None -> Some s | Some prev -> Some (sample_merge prev s));
    (match from_child with
    | Some c -> if not (List.mem c a.heard) then a.heard <- c :: a.heard
    | None -> ());
    arm_timer t epoch a;
    check_ready t epoch a
  end

let on_heartbeat t epoch =
  match t.script with
  | None -> ()
  | Some name -> (
    match Hashtbl.find_opt samplers name with
    | None -> ()
    | Some f ->
      t.taken <- t.taken + 1;
      let v = f ~rank:(Session.rank t.b) ~epoch in
      contribute t ~epoch ~from_child:None (sample_of_value v))

let module_of t =
  {
    Session.mod_name = "mon";
    on_request =
      (fun (req : Message.t) ->
        (match Topic.method_ req.Message.topic with
        | "reduce" ->
          let epoch = Json.to_int (Json.member "epoch" req.Message.payload) in
          let s = sample_of_json (Json.member "sample" req.Message.payload) in
          contribute t ~epoch ~from_child:(Some req.Message.origin) s;
          Session.respond t.b req Json.null
        | m -> Session.respond_error t.b req (Printf.sprintf "mon: unknown method %S" m));
        Session.Consumed);
  }

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
        {
          b = Session.broker sess r;
          master = r = 0;
          script = None;
          epochs = Hashtbl.create 8;
          latest = None;
          taken = 0;
          window = Hb.period hb.(r) /. 2.0;
        })
  in
  Session.load_module sess (fun b -> module_of instances.(Session.rank b));
  Array.iter (fun t -> Session.subscribe t.b ~prefix:"kvs.setroot" (reread_script t)) instances;
  Array.iteri (fun r t -> Hb.on_pulse hb.(r) (fun epoch -> on_heartbeat t epoch)) instances;
  instances

let set_script api value =
  match
    Flux_cmb.Api.rpc api ~topic:"kvs.mput"
      (Json.obj
         [
           ( "bindings",
             Json.list
               [ Json.obj [ ("key", Json.string "conf.mon.script"); ("v", value) ] ] );
         ])
  with
  | Ok _ -> Ok ()
  | Error e -> Error e

let activate api ~script = set_script api (Json.string script)
let deactivate api = set_script api (Json.string "")
