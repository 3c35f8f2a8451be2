module Json = Flux_json.Json
module Engine = Flux_sim.Engine

(* One epoch's accumulation at one broker. *)
type 'p epoch = { mutable acc : 'p option; mutable heard : int list; mutable armed : bool }

type 'p t = {
  sess : Session.t;
  reduce_topic : string;
  final_topic : string;
  window : float;
  levels : int; (* the static tree's height, in hops *)
  merge : 'p -> 'p -> 'p;
  to_fields : 'p -> (string * Json.t) list;
  of_json : Json.t -> 'p;
  on_send : int -> int -> unit;
  on_late : int -> unit;
  finalize : int -> 'p -> unit;
  epochs : (int, 'p epoch) Hashtbl.t array; (* per rank *)
  forwarded_upto : int array; (* per rank: later arrivals for <= this are late *)
}

let depth t b =
  let rec go b d =
    match Session.tree_parent b with
    | None -> d
    | Some p -> go (Session.broker t.sess p) (d + 1)
  in
  go b 0

let send t b ~final epoch v =
  let payload = Json.obj (("epoch", Json.int epoch) :: t.to_fields v) in
  t.on_send (Session.rank b) (Json.serialized_size payload);
  (* A child's partial may be retransmitted: its parent merges at most
     one per child and epoch. A final is sent once, since rank 0
     finalizes whatever it receives. *)
  Session.request_from_module b ~idempotent:(not final)
    ~topic:(if final then t.final_topic else t.reduce_topic)
    payload ~reply:ignore

let forward t rank epoch e =
  Hashtbl.remove t.epochs.(rank) epoch;
  match e.acc with
  | None -> ()
  | Some v -> (
    e.acc <- None;
    if epoch > t.forwarded_upto.(rank) then t.forwarded_upto.(rank) <- epoch;
    let b = Session.broker t.sess rank in
    let live = not (Session.is_down t.sess rank) in
    match Session.tree_parent b with
    | None when rank = 0 -> if live then t.finalize epoch v
    | None when live -> send t b ~final:true epoch v
    | _ -> send t b ~final:false epoch v)

(* Windows must run out child before parent, or a slow subtree's
   partial arrives just after its parent forwarded and is dropped as
   late all the way up: scale each broker's window by its levels above
   the leaves. *)
let arm t rank epoch e =
  if not e.armed then begin
    e.armed <- true;
    let mult = max 1 (1 + t.levels - depth t (Session.broker t.sess rank)) in
    ignore
      (Engine.schedule (Session.engine t.sess) ~delay:(t.window *. float_of_int mult) (fun () ->
           forward t rank epoch e)
        : Engine.handle)
  end

let merge_in t rank ~epoch ~from v =
  if epoch <= t.forwarded_upto.(rank) then t.on_late rank
  else begin
    let tbl = t.epochs.(rank) in
    let e =
      match Hashtbl.find_opt tbl epoch with
      | Some e -> e
      | None ->
        let e = { acc = None; heard = []; armed = false } in
        Hashtbl.replace tbl epoch e;
        e
    in
    let duplicate = match from with Some c -> List.mem c e.heard | None -> false in
    if not duplicate then begin
      e.acc <- Some (match e.acc with None -> v | Some prev -> t.merge prev v);
      (match from with Some c -> e.heard <- c :: e.heard | None -> ());
      arm t rank epoch e;
      let children = Session.tree_children (Session.broker t.sess rank) in
      if List.for_all (fun c -> List.mem c e.heard) children then forward t rank epoch e
    end
  end

let contribute t ~rank ~epoch v =
  if not (Session.is_down t.sess rank) then merge_in t rank ~epoch ~from:None v

let module_of t service b =
  {
    Session.mod_name = service;
    on_request =
      (fun (req : Message.t) ->
        let p = req.Message.payload in
        (match Topic.method_ req.Message.topic with
        | "reduce" ->
          merge_in t (Session.rank b)
            ~epoch:(Json.to_int (Json.member "epoch" p))
            ~from:(Some req.Message.origin) (t.of_json p);
          Session.respond b req Json.null
        | "final" ->
          t.finalize (Json.to_int (Json.member "epoch" p)) (t.of_json p);
          Session.respond b req Json.null
        | m -> Session.respond_error b req (Printf.sprintf "%s: unknown method %S" service m));
        Session.Consumed);
  }

let create sess ~service ~window ~merge ~to_fields ~of_json ?(on_send = fun _ _ -> ())
    ?(on_late = ignore) ~finalize () =
  let n = Session.size sess in
  let f = float_of_int (max 2 (Session.fanout sess)) in
  let t =
    {
      sess;
      reduce_topic = service ^ ".reduce";
      final_topic = service ^ ".final";
      window;
      levels = int_of_float (ceil (log (float_of_int (max 2 n)) /. log f));
      merge;
      to_fields;
      of_json;
      on_send;
      on_late;
      finalize;
      epochs = Array.init n (fun _ -> Hashtbl.create 8);
      forwarded_upto = Array.make n 0;
    }
  in
  Session.load_module sess (module_of t service);
  t
