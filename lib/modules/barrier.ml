module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Topic = Flux_cmb.Topic
module Collective = Flux_cmb.Collective
module Tracer = Flux_trace.Tracer

type t = {
  b : Session.broker;
  seen : Collective.dedup; (* aggregates stamped with a [bid] *)
  coll : unit Collective.t;
  mutable tracer : Tracer.t option;
}

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

(* A broker that became the root while the collective was open (its
   parent died) folds the batch in at its own root, whether the forward
   was still to be sent or came back failed. *)
let forward t (g : unit Collective.group) (batch : unit Collective.batch) =
  if Session.tree_parent t.b = None then Collective.to_root t.coll g batch
  else begin
    let name = g.Collective.name and count = batch.Collective.b_count in
    let bid = Collective.stamp t.seen in
    let ctx = child_span t batch.Collective.b_ctx in
    trace t ~name:"forward" ?ctx
      ~fields:
        [ ("name", Json.string name); ("count", Json.int count); ("bid", Json.int bid) ]
      ();
    let payload =
      Json.obj
        [
          ("name", Json.string name);
          ("nprocs", Json.int g.Collective.nprocs);
          ("count", Json.int count);
          ("bid", Json.int bid);
        ]
    in
    (* The reply blocks until the whole barrier completes, so the deadline
       must cover a slow collective; the bid lets the parent suppress the
       duplicate count if an attempt's response is lost. *)
    Session.request_from_module t.b ~timeout:30.0 ~idempotent:true ?trace_ctx:ctx
      ~topic:"barrier.enter" payload ~reply:(fun r ->
        match r with
        | Error _ when Session.tree_parent t.b = None -> Collective.to_root t.coll g batch
        | _ ->
          let r = match r with Ok _ -> Ok Json.null | Error _ -> r in
          List.iter (fun req -> Collective.respond t.seen req r) batch.Collective.b_parked;
          Collective.close t.coll g)
  end

let complete t (g : unit Collective.group) ~last =
  let name = g.Collective.name in
  let ctx = child_span t last in
  trace t ~name:"exit" ?ctx
    ~fields:[ ("name", Json.string name); ("nprocs", Json.int g.Collective.nprocs) ]
    ();
  List.iter (fun r -> Collective.respond t.seen r (Ok Json.null)) g.Collective.parked;
  Session.publish t.b ?trace_ctx:ctx ~topic:"barrier.exit"
    (Json.obj [ ("name", Json.string name) ])

let module_of t =
  {
    Session.mod_name = "barrier";
    on_request =
      (fun (req : Message.t) ->
        (match Topic.method_ req.Message.topic with
        | "enter" ->
          if not (Collective.duplicate t.seen req) then begin
            let p = req.Message.payload in
            let name = Json.to_string_v (Json.member "name" p) in
            let nprocs = Json.to_int (Json.member "nprocs" p) in
            let count =
              match Json.member_opt "count" p with Some c -> Json.to_int c | None -> 1
            in
            (* Aggregated contributions come from a child instance; a
               client enter originates at this very rank. *)
            let from_child =
              if req.Message.origin = Session.rank t.b then None else Some req.Message.origin
            in
            if from_child = None then
              trace t ~name:"enter" ?ctx:req.Message.trace
                ~fields:[ ("name", Json.string name); ("nprocs", Json.int nprocs) ]
                ();
            Collective.contribute t.coll ~name ~nprocs ~count ~from_child ~add:ignore req
          end
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
        seen = Collective.dedup b ~field:"bid";
        coll =
          Collective.create b ~fresh:ignore
            ~merge:(fun () ~into:() -> ())
            ~is_root:(fun () -> Session.tree_parent b = None)
            ~children:(fun () -> Session.tree_children b)
            ~forward:(fun g batch -> forward (Lazy.force t) g batch)
            ~complete:(fun g ~last -> complete (Lazy.force t) g ~last);
        tracer = None;
      }
  in
  Lazy.force t

let load sess () =
  let instances = Array.init (Session.size sess) (fun r -> create (Session.broker sess r)) in
  Session.load_module sess (fun b -> module_of instances.(Session.rank b));
  instances

let enter api ~name ~nprocs =
  (* A barrier blocks until all [nprocs] participants enter: no deadline. *)
  match
    Flux_cmb.Api.rpc api ~timeout:infinity ~topic:"barrier.enter"
      (Json.obj [ ("name", Json.string name); ("nprocs", Json.int nprocs) ])
  with
  | Ok _ -> Ok ()
  | Error e -> Error e
