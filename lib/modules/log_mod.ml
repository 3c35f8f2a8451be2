module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Topic = Flux_cmb.Topic
module Engine = Flux_sim.Engine
module Ring_buffer = Flux_util.Ring_buffer

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Debug
  | "info" -> Info
  | "warn" -> Warn
  | "error" -> Error
  | s -> invalid_arg (Printf.sprintf "Log_mod.level_of_string: %S" s)

type entry = { e_rank : int; e_level : level; e_text : string; e_count : int }

(* Messages below [Info] stay in the local circular buffer only. *)
let forward_level = Info

let buffer_capacity = 128

(* Forwarded messages are batched this long, in seconds. *)
let window = 1e-3

type t = {
  b : Session.broker;
  master : bool;
  buffer : entry Ring_buffer.t;
  mutable batch : entry list; (* reversed; pending upstream flush *)
  mutable batch_timer_armed : bool;
  mutable root_entries : entry list; (* root only; reversed *)
}

let root_log t = List.rev t.root_entries

let entry_to_json e =
  Json.obj
    [
      ("rank", Json.int e.e_rank);
      ("level", Json.string (level_to_string e.e_level));
      ("text", Json.string e.e_text);
      ("count", Json.int e.e_count);
    ]

let entry_of_json j =
  {
    e_rank = Json.to_int (Json.member "rank" j);
    e_level = level_of_string (Json.to_string_v (Json.member "level" j));
    e_text = Json.to_string_v (Json.member "text" j);
    e_count = Json.to_int (Json.member "count" j);
  }

(* Fold duplicate texts (same level and text) into one entry with a
   count — the "reduction" the paper mentions. The rank of the first
   occurrence is kept. *)
let reduce entries =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun e ->
      let key = (level_rank e.e_level, e.e_text) in
      match Hashtbl.find_opt tbl key with
      | Some acc -> Hashtbl.replace tbl key { acc with e_count = acc.e_count + e.e_count }
      | None ->
        Hashtbl.replace tbl key e;
        order := key :: !order)
    entries;
  List.rev_map (fun key -> Hashtbl.find tbl key) !order

let flush_batch t =
  if t.batch <> [] then begin
    let entries = reduce (List.rev t.batch) in
    t.batch <- [];
    if t.master then t.root_entries <- List.rev_append entries t.root_entries
    else
      Session.request_from_module t.b ~topic:"log.append"
        (Json.obj [ ("entries", Json.list (List.map entry_to_json entries)) ])
        ~reply:(fun _ -> ())
  end

let arm_batch_timer t =
  if not t.batch_timer_armed then begin
    t.batch_timer_armed <- true;
    ignore
      (Engine.schedule (Session.b_engine t.b) ~delay:window (fun () ->
           t.batch_timer_armed <- false;
           flush_batch t)
        : Engine.handle)
  end

let ingest t e =
  Ring_buffer.push t.buffer e;
  if level_rank e.e_level >= level_rank forward_level then begin
    t.batch <- e :: t.batch;
    arm_batch_timer t
  end

let module_of t =
  {
    Session.mod_name = "log";
    on_request =
      (fun (req : Message.t) ->
        (match Topic.method_ req.Message.topic with
        | "msg" ->
          let p = req.Message.payload in
          ingest t
            {
              e_rank = req.Message.origin;
              e_level = level_of_string (Json.to_string_v (Json.member "level" p));
              e_text = Json.to_string_v (Json.member "text" p);
              e_count = 1;
            };
          Session.respond t.b req Json.null
        | "append" ->
          (* Aggregated entries from a child: merge into our batch so
             successive hops keep reducing. *)
          let entries =
            List.map entry_of_json (Json.to_list (Json.member "entries" req.Message.payload))
          in
          List.iter (fun e -> t.batch <- e :: t.batch) entries;
          arm_batch_timer t;
          Session.respond t.b req Json.null
        | m -> Session.respond_error t.b req (Printf.sprintf "log: unknown method %S" m));
        Session.Consumed);
  }

(* On [log.fault], dump the circular buffer toward the root for
   post-mortem context. *)
let dump t _ =
  let entries = Ring_buffer.to_list t.buffer in
  if t.master then t.root_entries <- List.rev_append entries t.root_entries
  else if entries <> [] then
    Session.request_from_module t.b ~topic:"log.append"
      (Json.obj [ ("entries", Json.list (List.map entry_to_json entries)) ])
      ~reply:(fun _ -> ())

let load sess () =
  let instances =
    Array.init (Session.size sess) (fun r ->
        {
          b = Session.broker sess r;
          master = r = 0;
          buffer = Ring_buffer.create ~capacity:buffer_capacity;
          batch = [];
          batch_timer_armed = false;
          root_entries = [];
        })
  in
  Session.load_module sess (fun b -> module_of instances.(Session.rank b));
  Array.iter (fun t -> Session.subscribe t.b ~prefix:"log.fault" (dump t)) instances;
  instances

let log api ~level text =
  Flux_cmb.Api.rpc_async api ~topic:"log.msg"
    (Json.obj [ ("level", Json.string (level_to_string level)); ("text", Json.string text) ])
    ~reply:(fun _ -> ())

let dump_buffers api = Flux_cmb.Api.publish api ~topic:"log.fault" Json.null
