let window = 200e-6
let half = window /. 2.0

type leaf = { origin : int; stamp : int; n : int }

module Ids = Set.Make (struct
  type t = int * int

  let compare (a, b) (c, d) = if a <> c then Int.compare a c else Int.compare b d
end)

type 'p batch = { leaves : leaf list; parked : 'p list }

type ('p, 'r) root =
  | Counting of { counted : Ids.t; count : int; parked : 'p list }
  | Completed of { reply : 'r option; late : 'p list }

type ('p, 'r) state = {
  nprocs : int;
  own : int;
  leaves : leaf list;
  parked : 'p list;
  heard : int list;
  last_arrival : float;
  armed : bool;
  failures : int;
  inflight : (int * 'p batch) list;
  root : ('p, 'r) root option;
}

type outcome = Delivered | Failed | Aborted

type ('p, 'r) input =
  | Enter of { count : int; item : 'p }
  | Aggregate of { leaves : leaf list; from_child : int; item : 'p }
  | Check
  | Replied of { tag : int; outcome : outcome; reply : 'r }
  | Rerouted
  | Settled of 'r
  | Abort of 'r
  | Demote of 'r

type ('p, 'r) effect =
  | Forward of int * 'p batch
  | Arm of float
  | Complete of 'p list
  | Answer of 'p list * 'r

let init nprocs =
  {
    nprocs;
    own = 0;
    leaves = [];
    parked = [];
    heard = [];
    last_arrival = 0.0;
    armed = false;
    failures = 0;
    inflight = [];
    root = None;
  }

let open_below s = s.parked <> [] || s.inflight <> []
let arm_half = [ Arm half ]
let rearm = [ Arm (window /. 4.0) ]

(* Failed forwards refolded before one is answered with its error: a
   collective that can no longer complete (a participant is gone and
   its abort missed this broker) must not retry without end. *)
let budget = 12

let backoff failures = Float.min 1.0 (0.005 *. (2.0 ** float_of_int failures))
let weight leaves = List.fold_left (fun n l -> n + l.n) 0 leaves

(* Once nothing is pending or in flight the name closes below the root:
   its children heard, last arrival and failures start over. *)
let keep s =
  if open_below s then s
  else { s with heard = []; last_arrival = 0.0; armed = false; failures = 0 }

(* The root counts each leaf once, so a duplicate adds nothing, and
   keeps a completed name to answer a late contribution from its reply. *)
let accumulate s leaves parked =
  match s.root with
  | Some (Completed { reply = Some r; _ }) -> (s, [ Answer (parked, r) ])
  | Some (Completed { reply = None; late }) ->
    ({ s with root = Some (Completed { reply = None; late = parked @ late }) }, [])
  | root ->
    let counted, count, parked =
      match root with
      | Some (Counting c) -> (c.counted, c.count, parked @ c.parked)
      | _ -> (Ids.empty, 0, parked)
    in
    let counted, count =
      List.fold_left
        (fun (ids, k) l ->
          let id = (l.origin, l.stamp) in
          if Ids.mem id ids then (ids, k) else (Ids.add id ids, k + l.n))
        (counted, count) leaves
    in
    if count >= s.nprocs then
      ({ s with root = Some (Completed { reply = None; late = [] }) }, [ Complete parked ])
    else ({ s with root = Some (Counting { counted; count; parked }) }, [])

(* Forward what is pending under tag [fresh], this broker's own enters
   as one leaf stamped [fresh], or fold it in here if this broker is the
   root. *)
let send ~self ~fresh ~root s =
  let leaves =
    if s.own > 0 then { origin = self; stamp = fresh; n = s.own } :: s.leaves else s.leaves
  in
  let b = { leaves; parked = s.parked } in
  if root then accumulate (keep { s with own = 0; leaves = []; parked = [] }) leaves b.parked
  else
    ( { s with own = 0; leaves = []; parked = []; inflight = (fresh, b) :: s.inflight },
      [ Forward (fresh, b) ] )

let refold s (b : _ batch) =
  { s with leaves = List.rev_append b.leaves s.leaves; parked = b.parked @ s.parked }

(* The armed check fires. Forward once every child has been heard and
   the collective has been quiet for half a window (so locally staggered
   enters batch into one message), or after two windows of quiet so that
   silent children cannot wedge it; otherwise check again. *)
let check ~self ~fresh ~now ~root ~children s =
  let idle = now -. s.last_arrival in
  if s.parked = [] then (keep { s with armed = false }, [])
  else if
    s.own + weight s.leaves >= s.nprocs
    || idle >= 2.0 *. window
    || (idle >= half && List.for_all (fun ch -> List.mem ch s.heard) (children ()))
  then send ~self ~fresh ~root { s with armed = false }
  else (s, rearm)

(* [own] contributions of this broker's clients, or the [leaves] of a
   child's aggregate. Forward as soon as the subtree is known complete;
   short of [nprocs], arm a check at half a window. *)
let contribute ~self ~fresh ~now ~root s ~own ~leaves ~from_child item =
  if root then
    let leaves = if own > 0 then { origin = self; stamp = fresh; n = own } :: leaves else leaves in
    accumulate s leaves [ item ]
  else
    let leaves = List.rev_append leaves s.leaves in
    let short = s.own + own + weight leaves < s.nprocs in
    let s' =
      {
        s with
        own = s.own + own;
        leaves;
        heard =
          (match from_child with
          | Some ch when not (List.mem ch s.heard) -> ch :: s.heard
          | _ -> s.heard);
        parked = item :: s.parked;
        last_arrival = now;
        armed = s.armed || short;
      }
    in
    if not short then send ~self ~fresh ~root s'
    else (s', if s.armed then [] else arm_half)

let step ~self ~fresh ~now ~root ~children s = function
  | Enter { count; item } ->
    contribute ~self ~fresh ~now ~root s ~own:count ~leaves:[] ~from_child:None item
  | Aggregate { leaves; from_child; item } ->
    contribute ~self ~fresh ~now ~root s ~own:0 ~leaves ~from_child:(Some from_child) item
  | Check -> check ~self ~fresh ~now ~root ~children s
  | Replied { tag; outcome; reply } -> (
    match List.assoc_opt tag s.inflight with
    | Some b -> (
      let s = { s with inflight = List.remove_assoc tag s.inflight } in
      match outcome with
      | Failed when s.failures < budget ->
        (* Refold the batch as a fresh arrival and check again after a
           backoff that doubles with each failure. *)
        let failures = s.failures + 1 in
        let s = refold { s with failures; last_arrival = now } b in
        if s.armed then (s, []) else ({ s with armed = true }, [ Arm (backoff failures) ])
      | Delivered | Failed | Aborted -> (keep s, [ Answer (b.parked, reply) ]))
    | None -> (s, []))
  | Rerouted -> (
    match s.inflight with
    | [] -> (s, [])
    | inflight ->
      let s = { s with inflight = []; last_arrival = now } in
      send ~self ~fresh ~root (List.fold_left (fun s (_, b) -> refold s b) s inflight))
  | Settled r -> (
    match s.root with
    | Some (Completed { reply = None; late }) ->
      ( { s with root = Some (Completed { reply = Some r; late = [] }) },
        if late = [] then [] else [ Answer (late, r) ] )
    | _ -> (s, []))
  | Abort r -> (
    let s, pending =
      if s.parked = [] then (s, [])
      else (keep { s with own = 0; leaves = []; parked = [] }, [ Answer (s.parked, r) ])
    in
    match s.root with
    | Some (Counting c) -> ({ s with root = None }, pending @ [ Answer (c.parked, r) ])
    | _ -> (s, pending))
  | Demote r -> (
    match s.root with
    | Some (Counting { parked; _ } | Completed { late = parked; _ }) ->
      ({ s with root = None }, if parked = [] then [] else [ Answer (parked, r) ])
    | None -> (s, []))
