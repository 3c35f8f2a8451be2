module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Tracer = Flux_trace.Tracer

let window = 200e-6

(* --- Exactly-once replies ----------------------------------------------- *)

type entry = {
  mutable result : (Json.t, string) result option;
  mutable waiting : Message.t list; (* retransmits parked behind the original *)
}

type dedup = {
  db : Session.broker;
  field : string;
  seen : (int * int, entry) Hashtbl.t; (* (origin, id) *)
  mutable next_id : int;
}

let dedup b ~field = { db = b; field; seen = Hashtbl.create 16; next_id = 0 }

let stamp d =
  let id = d.next_id in
  d.next_id <- id + 1;
  id

let id_of d (req : Message.t) =
  match Json.member_opt d.field req.Message.payload with
  | Some j -> Json.to_int j
  | None -> -1

let answer b q = function
  | Ok payload -> Session.respond b q payload
  | Error e -> Session.respond_error b q e

(* Drop completed entries once the table grows large; entries whose
   original is still in flight are kept, so retransmits keep folding
   into it. *)
let compact d =
  if Hashtbl.length d.seen > 8192 then begin
    let stale =
      Hashtbl.fold
        (fun key e acc -> if e.result <> None && e.waiting = [] then key :: acc else acc)
        d.seen []
    in
    List.iter (Hashtbl.remove d.seen) stale
  end

let duplicate d (req : Message.t) =
  let id = id_of d req in
  id >= 0
  &&
  let key = (req.Message.origin, id) in
  match Hashtbl.find_opt d.seen key with
  | Some e ->
    (match e.result with
    | Some r -> answer d.db req r
    | None -> e.waiting <- req :: e.waiting);
    true
  | None ->
    compact d;
    Hashtbl.replace d.seen key { result = None; waiting = [] };
    false

let respond d (req : Message.t) result =
  answer d.db req result;
  let id = id_of d req in
  if id >= 0 then
    match Hashtbl.find_opt d.seen (req.Message.origin, id) with
    | Some e ->
      e.result <- Some result;
      let waiting = e.waiting in
      e.waiting <- [];
      List.iter (fun q -> answer d.db q result) waiting
    | None -> ()

(* --- Open collectives ------------------------------------------------------ *)

type 'c group = {
  name : string;
  nprocs : int;
  mutable content : 'c;
  mutable count : int;
  mutable heard : int list;
  mutable parked : Message.t list;
  mutable ctx : Tracer.ctx option;
  mutable last_arrival : float;
  mutable armed : bool;
  mutable failures : int;
}

type 'c batch = {
  b_count : int;
  b_parked : Message.t list;
  b_ctx : Tracer.ctx option;
  b_content : 'c;
}

type 'c t = {
  eng : Engine.t;
  fresh : unit -> 'c;
  merge : 'c -> into:'c -> unit;
  is_root : unit -> bool;
  children : unit -> int list;
  forward : 'c group -> 'c batch -> unit;
  complete : 'c group -> last:Tracer.ctx option -> unit;
  opened : (string, 'c group) Hashtbl.t; (* below the root *)
  rooted : (string, 'c group) Hashtbl.t; (* at the root *)
}

let create b ~fresh ~merge ~is_root ~children ~forward ~complete =
  {
    eng = Session.b_engine b;
    fresh;
    merge;
    is_root;
    children;
    forward;
    complete;
    opened = Hashtbl.create 8;
    rooted = Hashtbl.create 8;
  }

let group_in c tbl name nprocs =
  match Hashtbl.find_opt tbl name with
  | Some g -> g
  | None ->
    let g =
      {
        name;
        nprocs;
        content = c.fresh ();
        count = 0;
        heard = [];
        parked = [];
        ctx = None;
        last_arrival = 0.0;
        armed = false;
        failures = 0;
      }
    in
    Hashtbl.replace tbl name g;
    g

(* Root side: the collective completes once its count reaches [nprocs].
   [ctx] is the causal context of this contribution. *)
let accumulate c ~name ~nprocs ~count ~parked ~ctx ~add =
  let g = group_in c c.rooted name nprocs in
  g.count <- g.count + count;
  add g.content;
  g.parked <- parked @ g.parked;
  if g.ctx = None then g.ctx <- ctx;
  if g.count >= g.nprocs then begin
    Hashtbl.remove c.rooted name;
    c.complete g ~last:ctx
  end

let take c g =
  let batch = { b_count = g.count; b_parked = g.parked; b_ctx = g.ctx; b_content = g.content } in
  g.count <- 0;
  g.parked <- [];
  g.ctx <- None;
  g.content <- c.fresh ();
  batch

(* Forward as soon as the subtree is known complete; otherwise once
   every child has been heard and the collective has been quiet for half
   a window (so locally staggered enters batch into one message), or
   after two windows of quiet so that silent children cannot wedge it. *)
let rec check c g =
  if g.count > 0 then begin
    let children = c.children () in
    let all_heard = List.for_all (fun ch -> List.mem ch g.heard) children in
    let idle = Engine.now c.eng -. g.last_arrival in
    if g.count >= g.nprocs || (all_heard && idle >= window /. 2.0) || idle >= 2.0 *. window
    then c.forward g (take c g)
    else arm c g (window /. 4.0)
  end

and arm c g delay =
  if not g.armed then begin
    g.armed <- true;
    ignore
      (Engine.schedule c.eng ~delay (fun () ->
           g.armed <- false;
           check c g)
        : Engine.handle)
  end

let contribute c ~name ~nprocs ~count ~from_child ~add (req : Message.t) =
  if c.is_root () then
    accumulate c ~name ~nprocs ~count ~parked:[ req ] ~ctx:req.Message.trace ~add
  else begin
    let g = group_in c c.opened name nprocs in
    g.count <- g.count + count;
    add g.content;
    (match from_child with
    | Some ch -> if not (List.mem ch g.heard) then g.heard <- ch :: g.heard
    | None -> ());
    g.parked <- req :: g.parked;
    if g.ctx = None then g.ctx <- req.Message.trace;
    g.last_arrival <- Engine.now c.eng;
    if g.count >= g.nprocs then check c g else arm c g (window /. 2.0)
  end

let close c g = if g.count = 0 && g.parked = [] then Hashtbl.remove c.opened g.name

let to_root c g batch =
  close c g;
  accumulate c ~name:g.name ~nprocs:g.nprocs ~count:batch.b_count ~parked:batch.b_parked
    ~ctx:None ~add:(fun into -> c.merge batch.b_content ~into)

let retry c g batch ~delay =
  g.failures <- g.failures + 1;
  g.count <- g.count + batch.b_count;
  c.merge batch.b_content ~into:g.content;
  g.parked <- batch.b_parked @ g.parked;
  g.last_arrival <- Engine.now c.eng;
  arm c g (delay g.failures)

let withdraw c name =
  let below =
    match Hashtbl.find_opt c.opened name with
    | Some g ->
      let parked = (take c g).b_parked in
      Hashtbl.remove c.opened name;
      [ parked ]
    | None -> []
  in
  match Hashtbl.find_opt c.rooted name with
  | Some g ->
    Hashtbl.remove c.rooted name;
    below @ [ g.parked ]
  | None -> below

let drop_roots c =
  let groups = Hashtbl.fold (fun _ g acc -> g :: acc) c.rooted [] in
  Hashtbl.reset c.rooted;
  List.concat_map (fun g -> g.parked) groups

let reset c =
  Hashtbl.reset c.opened;
  Hashtbl.reset c.rooted

let open_at_root c name = Hashtbl.mem c.rooted name
let parked_at_root c = Hashtbl.fold (fun _ g acc -> acc + List.length g.parked) c.rooted 0
