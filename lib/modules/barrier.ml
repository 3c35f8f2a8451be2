module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Topic = Flux_cmb.Topic
module Collective = Flux_cmb.Collective
module Tracer = Flux_trace.Tracer

type t = { b : Session.broker; coll : unit Collective.t; mutable tracer : Tracer.t option }

let set_tracer_all ts tr = Array.iter (fun t -> t.tracer <- Some tr) ts

let trace t ~name ?ctx ?(fields = []) () =
  match t.tracer with
  | None -> ()
  | Some tr ->
    Tracer.emit tr ~cat:"barrier" ~name ~rank:(Session.rank t.b) ?ctx ~fields ()

let child_span t parent =
  match (t.tracer, parent) with
  | Some tr, Some c -> Some (Tracer.child_ctx tr c)
  | _ -> None

let send t (batch : unit Collective.batch) k =
  let name = batch.Collective.name and count = Flux_cmb.Tally.weight batch.Collective.leaves in
  let ctx = child_span t batch.Collective.ctx in
  trace t ~name:"forward" ?ctx
    ~fields:[ ("name", Json.string name); ("count", Json.int count) ]
    ();
  let payload =
    Json.obj
      [
        ("name", Json.string name);
        ("nprocs", Json.int batch.Collective.nprocs);
        ("ids", Collective.leaves_to_json batch.Collective.leaves);
      ]
  in
  (* The reply blocks until the whole barrier completes, so the deadline
     must cover a slow collective; a retransmit carries the same leaves,
     which the root counts once. *)
  Session.request_from_module t.b ~timeout:30.0 ~idempotent:true ?trace_ctx:ctx
    ~topic:"barrier.enter" payload ~reply:(fun r ->
      k (match r with Ok _ -> Ok Json.null | Error _ -> r))

let complete t (batch : unit Collective.batch) ~last ~settle =
  let name = batch.Collective.name in
  let ctx = child_span t last in
  trace t ~name:"exit" ?ctx
    ~fields:[ ("name", Json.string name); ("nprocs", Json.int batch.Collective.nprocs) ]
    ();
  List.iter
    (fun (it : unit Collective.item) -> Session.respond t.b it.Collective.req Json.null)
    batch.Collective.items;
  settle (Ok Json.null);
  Session.publish t.b ?trace_ctx:ctx ~topic:"barrier.exit"
    (Json.obj [ ("name", Json.string name) ])

let module_of t =
  {
    Session.mod_name = "barrier";
    on_request =
      (fun (req : Message.t) ->
        (match Topic.method_ req.Message.topic with
        | "enter" -> (
          let p = req.Message.payload in
          let name = Json.to_string_v (Json.member "name" p) in
          let nprocs = Json.to_int (Json.member "nprocs" p) in
          (* A child's aggregate carries the leaves it covers; a client
             enter carries none. *)
          match Json.member_opt "ids" p with
          | Some ids ->
            Collective.aggregate t.coll ~name ~nprocs ~leaves:(Collective.leaves_of_json ids)
              ~from_child:req.Message.origin req ()
          | None ->
            trace t ~name:"enter" ?ctx:req.Message.trace
              ~fields:[ ("name", Json.string name); ("nprocs", Json.int nprocs) ]
              ();
            Collective.enter t.coll ~name ~nprocs ~count:1 req ())
        | m -> Session.respond_error t.b req (Printf.sprintf "barrier: unknown method %S" m));
        Session.Consumed);
  }

(* The root is whichever broker has no tree parent, so the barrier
   follows the overlay root when rank 0 dies. *)
let create b =
  let rec t =
    lazy
      {
        b;
        coll =
          Collective.create b
            ~final:(fun _ -> false)
            ~is_root:(fun () -> Session.tree_parent b = None)
            ~parent:(fun () -> Session.tree_parent b)
            ~children:(fun () -> Session.tree_children b)
            ~send:(fun batch k -> send (Lazy.force t) batch k)
            ~answer:(fun req -> function
              | Ok p -> Session.respond b req p
              | Error e -> Session.respond_error b req e)
            ~complete:(fun batch ~last ~settle -> complete (Lazy.force t) batch ~last ~settle);
        tracer = None;
      }
  in
  Lazy.force t

(* A broker whose parent changed re-forwards its open batches at once. *)
let load sess () =
  let instances = Array.init (Session.size sess) (fun r -> create (Session.broker sess r)) in
  Session.load_module sess (fun b -> module_of instances.(Session.rank b));
  Session.add_liveness_watch sess (fun _ _ -> Array.iter (fun t -> Collective.reroute t.coll) instances);
  instances

let enter api ~name ~nprocs =
  (* A barrier blocks until all [nprocs] participants enter: no deadline. *)
  match
    Flux_cmb.Api.rpc api ~timeout:infinity ~topic:"barrier.enter"
      (Json.obj [ ("name", Json.string name); ("nprocs", Json.int nprocs) ])
  with
  | Ok _ -> Ok ()
  | Error e -> Error e
