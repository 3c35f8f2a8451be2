module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Tracer = Flux_trace.Tracer

type reply = (Json.t, string) result
type 'c item = { req : Message.t; content : 'c }

type 'c batch = {
  name : string;
  nprocs : int;
  leaves : Tally.leaf list;
  items : 'c item list;
  ctx : Tracer.ctx option;
}

type 'c t = {
  b : Session.broker;
  eng : Engine.t;
  final : string -> bool;
  is_root : unit -> bool;
  parent : unit -> int option;
  children : unit -> int list;
  send : 'c batch -> (reply -> unit) -> unit;
  answer : Message.t -> reply -> unit;
  complete : 'c batch -> last:Tracer.ctx option -> settle:(reply -> unit) -> unit;
  names : (string, ('c item, reply) Tally.state) Hashtbl.t;
  mutable fresh : int; (* never reset: stamps and tags stay unique *)
  mutable sent_to : int option; (* the parent of the last forward *)
}

let create b ~final ~is_root ~parent ~children ~send ~answer ~complete =
  {
    b;
    eng = Session.b_engine b;
    final;
    is_root;
    parent;
    children;
    send;
    answer;
    complete;
    names = Hashtbl.create 8;
    fresh = 0;
    sent_to = None;
  }

let leaves_to_json leaves =
  Json.list
    (List.concat_map
       (fun (l : Tally.leaf) -> [ Json.int l.Tally.origin; Json.int l.Tally.stamp; Json.int l.Tally.n ])
       leaves)

let leaves_of_json j =
  let rec go = function
    | o :: s :: n :: rest ->
      { Tally.origin = Json.to_int o; stamp = Json.to_int s; n = Json.to_int n } :: go rest
    | _ -> []
  in
  go (Json.to_list j)

(* [ctx] is the first causal context among [items], oldest first. *)
let batch name nprocs leaves items =
  let ctx =
    List.fold_left
      (fun acc it -> match it.req.Message.trace with Some _ as x -> x | None -> acc)
      None items
  in
  { name; nprocs; leaves; items; ctx }

(* Past 8,192 names, forget the completed ones whose reply is settled. *)
let compact c =
  if Hashtbl.length c.names > 8192 then begin
    let stale =
      Hashtbl.fold
        (fun name (s : _ Tally.state) acc ->
          match s.Tally.root with
          | Some (Completed { reply = Some _; _ }) when not (Tally.open_below s) -> name :: acc
          | _ -> acc)
        c.names []
    in
    List.iter (Hashtbl.remove c.names) stale
  end

(* Step [name], keep its next state while it holds anything, and perform
   the effects in order. *)
let rec feed c name ~nprocs input =
  let s =
    match Hashtbl.find c.names name with
    | s -> s
    | exception Not_found ->
      compact c;
      Tally.init nprocs
  in
  let fresh = c.fresh in
  c.fresh <- fresh + 1;
  let s', effects =
    Tally.step ~self:(Session.rank c.b) ~fresh ~now:(Engine.now c.eng) ~root:(c.is_root ())
      ~children:c.children s input
  in
  if s'.Tally.root = None && not (Tally.open_below s') then Hashtbl.remove c.names name
  else if s' != s then Hashtbl.replace c.names name s';
  perform c name s.Tally.nprocs input effects

and perform c name nprocs input = function
  | [] -> ()
  | effect :: rest ->
    perform_one c name nprocs input effect;
    perform c name nprocs input rest

and perform_one c name nprocs input = function
  | Tally.Forward (tag, b) ->
    c.sent_to <- c.parent ();
    c.send (batch name nprocs b.Tally.leaves b.Tally.parked) (fun r ->
        let outcome =
          match r with
          | Ok _ -> Tally.Delivered
          | Error e -> if c.final e then Tally.Aborted else Tally.Failed
        in
        feed c name ~nprocs (Tally.Replied { tag; outcome; reply = r }))
  | Arm delay ->
    ignore (Engine.schedule c.eng ~delay (fun () -> feed c name ~nprocs Tally.Check) : Engine.handle)
  | Complete items ->
    let last =
      match input with
      | Tally.Enter { item; _ } | Aggregate { item; _ } -> item.req.Message.trace
      | _ -> None
    in
    c.complete (batch name nprocs [] items) ~last ~settle:(fun r -> feed c name ~nprocs (Tally.Settled r))
  | Answer (items, r) -> List.iter (fun it -> c.answer it.req r) items

let enter c ~name ~nprocs ~count req content =
  feed c name ~nprocs (Tally.Enter { count; item = { req; content } })

let aggregate c ~name ~nprocs ~leaves ~from_child req content =
  feed c name ~nprocs (Tally.Aggregate { leaves; from_child; item = { req; content } })

(* Feed [input] to the names [pick] selects. *)
let each c pick input =
  List.iter
    (fun (name, nprocs) -> feed c name ~nprocs input)
    (Hashtbl.fold (fun name s acc -> if pick s then (name, s.Tally.nprocs) :: acc else acc) c.names [])

let reroute c =
  let parent = c.parent () in
  if parent <> c.sent_to && not (Session.is_down (Session.session_of c.b) (Session.rank c.b)) then begin
    c.sent_to <- parent;
    each c
      (fun s -> s.Tally.inflight <> [])
      Tally.Rerouted
  end

let withdraw c name error =
  match Hashtbl.find_opt c.names name with
  | Some s -> feed c name ~nprocs:s.Tally.nprocs (Tally.Abort error)
  | None -> ()

let drop_roots c error = each c (fun s -> s.Tally.root <> None) (Tally.Demote error)
let reset c = Hashtbl.reset c.names

let open_at_root c name =
  match Hashtbl.find_opt c.names name with
  | Some { Tally.root = Some (Counting _); _ } -> true
  | _ -> false

let parked_at_root c =
  Hashtbl.fold
    (fun _ s acc ->
      match s.Tally.root with Some (Counting r) -> acc + List.length r.parked | _ -> acc)
    c.names 0
