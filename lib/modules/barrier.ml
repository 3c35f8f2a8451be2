module Json = Flux_json.Json
module Session = Flux_cmb.Session
module Message = Flux_cmb.Message
module Topic = Flux_cmb.Topic
module Engine = Flux_sim.Engine
module Tracer = Flux_trace.Tracer

type barrier_state = {
  mutable bs_count : int; (* not yet forwarded *)
  mutable bs_heard : int list;
  mutable bs_pending : Message.t list;
  mutable bs_timer_armed : bool;
  mutable bs_last_arrival : float;
  mutable bs_ctx : Tracer.ctx option; (* causal parent for the next forward *)
  bs_nprocs : int;
}

(* Receiver-side duplicate suppression for retransmitted aggregate
   enters, keyed ([origin], [bid]); mirrors the KVS flush dedup. *)
type enter_dup = {
  mutable ed_result : (Json.t, string) result option;
  mutable ed_waiting : Message.t list;
}

(* Aggregation window, seconds. *)
let window = 200e-6

type t = {
  b : Session.broker;
  eng : Engine.t;
  max_pending : int; (* 0 = unbounded; else shed direct enters past this *)
  master : bool;
  states : (string, barrier_state) Hashtbl.t;
  master_counts : (string, int * Message.t list) Hashtbl.t;
  mutable next_bid : int; (* stamps forwarded aggregates for dedup *)
  seen : (int * int, enter_dup) Hashtbl.t; (* (origin, bid) *)
  mutable shed_enters : int;
  mutable tracer : Tracer.t option;
}

let sheds t = t.shed_enters
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

let state_get t name nprocs =
  match Hashtbl.find_opt t.states name with
  | Some s -> s
  | None ->
    let s =
      {
        bs_count = 0;
        bs_heard = [];
        bs_pending = [];
        bs_timer_armed = false;
        bs_last_arrival = 0.0;
        bs_ctx = None;
        bs_nprocs = nprocs;
      }
    in
    Hashtbl.replace t.states name s;
    s

(* Respond to [req] and, if it was a deduplicated aggregate, record the
   result so retransmits are answered without being re-counted. *)
let respond_enter t (req : Message.t) result =
  let answer q =
    match result with
    | Ok payload -> Session.respond t.b q payload
    | Error e -> Session.respond_error t.b q e
  in
  answer req;
  match Json.member_opt "bid" req.Message.payload with
  | None -> ()
  | Some bj -> (
    match Hashtbl.find_opt t.seen (req.Message.origin, Json.to_int bj) with
    | Some d ->
      d.ed_result <- Some result;
      let waiting = d.ed_waiting in
      d.ed_waiting <- [];
      List.iter answer waiting
    | None -> ())

let forward t name s =
  let count = s.bs_count in
  let pending = s.bs_pending in
  s.bs_count <- 0;
  s.bs_pending <- [];
  let bid = t.next_bid in
  t.next_bid <- t.next_bid + 1;
  let ctx = child_span t s.bs_ctx in
  s.bs_ctx <- None;
  trace t ~name:"forward" ?ctx
    ~fields:
      [ ("name", Json.string name); ("count", Json.int count); ("bid", Json.int bid) ]
    ();
  let payload =
    Json.obj
      [
        ("name", Json.string name);
        ("nprocs", Json.int s.bs_nprocs);
        ("count", Json.int count);
        ("bid", Json.int bid);
      ]
  in
  (* The reply blocks until the whole barrier completes, so the deadline
     must cover a slow collective; the bid lets the parent suppress the
     duplicate count if an attempt's response is lost. *)
  Session.request_from_module t.b ~timeout:30.0 ~idempotent:true ?trace_ctx:ctx
    ~topic:"barrier.enter" payload ~reply:(fun r ->
      (match r with
      | Ok _ -> List.iter (fun req -> respond_enter t req (Ok Json.null)) pending
      | Error e -> List.iter (fun req -> respond_enter t req (Error e)) pending);
      if s.bs_count = 0 && s.bs_pending = [] then Hashtbl.remove t.states name)

let rec check_ready t name s =
  if s.bs_count > 0 then begin
    let children = Session.tree_children t.b in
    let all_heard = List.for_all (fun c -> List.mem c s.bs_heard) children in
    let idle = Engine.now t.eng -. s.bs_last_arrival in
    if
      s.bs_count >= s.bs_nprocs
      || (all_heard && idle >= window /. 2.0)
      || idle >= 2.0 *. window
    then forward t name s
    else arm t name s (window /. 4.0)
  end

and arm t name s delay =
  if not s.bs_timer_armed then begin
    s.bs_timer_armed <- true;
    ignore
      (Engine.schedule t.eng ~delay (fun () ->
           s.bs_timer_armed <- false;
           check_ready t name s)
        : Engine.handle)
  end

let master_contribute t name nprocs count req =
  let total, pending =
    match Hashtbl.find_opt t.master_counts name with
    | Some (c, p) -> (c + count, req :: p)
    | None -> (count, [ req ])
  in
  if total >= nprocs then begin
    Hashtbl.remove t.master_counts name;
    let ctx = child_span t req.Message.trace in
    trace t ~name:"exit" ?ctx
      ~fields:[ ("name", Json.string name); ("nprocs", Json.int nprocs) ]
      ();
    List.iter (fun r -> respond_enter t r (Ok Json.null)) pending;
    Session.publish t.b ?trace_ctx:ctx ~topic:"barrier.exit"
      (Json.obj [ ("name", Json.string name) ])
  end
  else Hashtbl.replace t.master_counts name (total, pending)

(* Replies this instance is already holding for [name]. Aggregation
   merges counts as they arrive, so the only per-enter state that grows
   without bound under overload is this reply list. *)
let pending_depth t name =
  if t.master then
    match Hashtbl.find_opt t.master_counts name with
    | Some (_, p) -> List.length p
    | None -> 0
  else
    match Hashtbl.find_opt t.states name with
    | Some s -> List.length s.bs_pending
    | None -> 0

let contribute t ~name ~nprocs ~count ~from_child req =
  if from_child = None && t.max_pending > 0 && pending_depth t name >= t.max_pending then begin
    (* Shed only direct client enters: an aggregate from a child carries
       its whole subtree's counts, and dropping it would wedge the
       collective. A shed client was never counted, so it can simply
       re-enter after the hinted delay. *)
    t.shed_enters <- t.shed_enters + 1;
    trace t ~name:"shed" ?ctx:req.Message.trace ~fields:[ ("name", Json.string name) ] ();
    Session.respond_error t.b req (Session.busy_error ~retry_after:window)
  end
  else begin
  (match from_child with
  | None ->
    trace t ~name:"enter" ?ctx:req.Message.trace
      ~fields:[ ("name", Json.string name); ("nprocs", Json.int nprocs) ]
      ()
  | Some _ -> ());
  if t.master then master_contribute t name nprocs count req
  else begin
    let s = state_get t name nprocs in
    s.bs_count <- s.bs_count + count;
    s.bs_pending <- req :: s.bs_pending;
    (match (s.bs_ctx, req.Message.trace) with
    | None, (Some _ as c) -> s.bs_ctx <- c
    | _ -> ());
    (match from_child with
    | Some c -> if not (List.mem c s.bs_heard) then s.bs_heard <- c :: s.bs_heard
    | None -> ());
    s.bs_last_arrival <- Engine.now t.eng;
    if s.bs_count >= s.bs_nprocs then check_ready t name s
    else arm t name s (window /. 2.0)
  end
  end

let module_of t =
  {
    Session.mod_name = "barrier";
    on_request =
      (fun (req : Message.t) ->
        (match Topic.method_ req.Message.topic with
        | "enter" ->
          let p = req.Message.payload in
          let duplicate =
            match Json.member_opt "bid" p with
            | None -> false
            | Some bj -> (
              let key = (req.Message.origin, Json.to_int bj) in
              match Hashtbl.find_opt t.seen key with
              | Some d ->
                (match d.ed_result with
                | Some (Ok payload) -> Session.respond t.b req payload
                | Some (Error e) -> Session.respond_error t.b req e
                | None -> d.ed_waiting <- req :: d.ed_waiting);
                true
              | None ->
                Hashtbl.replace t.seen key { ed_result = None; ed_waiting = [] };
                false)
          in
          if not duplicate then begin
            let name = Json.to_string_v (Json.member "name" p) in
            let nprocs = Json.to_int (Json.member "nprocs" p) in
            let count =
              match Json.member_opt "count" p with Some c -> Json.to_int c | None -> 1
            in
            let from_child =
              (* Aggregated contributions come from a child instance; a
                 client enter originates at this very rank. *)
              if req.Message.origin = Session.rank t.b then None else Some req.Message.origin
            in
            contribute t ~name ~nprocs ~count ~from_child req
          end
        | m -> Session.respond_error t.b req (Printf.sprintf "barrier: unknown method %S" m));
        Session.Consumed);
  }

let load sess ?(max_pending = 0) () =
  if max_pending < 0 then invalid_arg "Barrier.load: max_pending must be >= 0";
  let instances =
    Array.init (Session.size sess) (fun r ->
        let b = Session.broker sess r in
        {
          b;
          eng = Session.b_engine b;
          max_pending;
          master = r = 0;
          states = Hashtbl.create 8;
          master_counts = Hashtbl.create 8;
          next_bid = 0;
          seen = Hashtbl.create 16;
          shed_enters = 0;
          tracer = None;
        })
  in
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
