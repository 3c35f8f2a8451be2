(* The tree collective, checked in small scope: one collective over a
   binary tree of 5, 6 or 7 brokers whose participants enter at the
   leaves, driven through the same Tally.step that Collective runs.
   Every interleaving of the enters with up to three faults is explored,
   with a bounded set of deliveries between events: none, all in FIFO
   order, or all but one broker's messages. A fault is one of:

   - kill an interior broker: it sends and receives nothing, and its
     children are re-parented the way Session.heal does (nearest live
     static ancestor), each told its parent changed;
   - revive it: its collective state is gone, as after Kvs_module's
     forget, and its static children move back under it;
   - lose a forward's reply: the sender retransmits the same request
     along its current route, as the session's retransmit does.

   Armed checks fire as messages; simulated time moves by a second per
   step, so a check that fires always forwards.

   After every step: the root has counted no participant twice, a name
   completes at most once, and no parked request is answered twice.
   Once drained with every participant in: the name has completed,
   every participant has been answered exactly once, and no live broker
   holds anything open. A violation fails with the event sequence and
   the invariant it broke. The root never dies and no abort or demotion
   is fed: those inputs are left to the KVS harnesses. *)

module T = Flux_cmb.Tally

(* A parked request: a participant's enter, or one delivery of a
   forward request [rpc]. [id] tells apart two deliveries of one rpc. *)
type item = Client of int | Fwd of { rpc : int; src : int; id : int }

type msg =
  | Req of { rpc : int; src : int; dst : int; leaves : T.leaf list }
  | Rsp of { rpc : int; src : int; dst : int }
  | Tick of int  (** an armed check of this broker fires *)

let sender = function Req { src; _ } | Rsp { src; _ } -> src | Tick b -> b

type event =
  | Enter of int
  | Kill of int
  | Revive of int
  | Lose of int  (** the reply of this rpc *)
  | None_delivered
  | All
  | All_but of int

let event_to_string = function
  | Enter p -> Printf.sprintf "enter %d" p
  | Kill r -> Printf.sprintf "kill %d" r
  | Revive r -> Printf.sprintf "revive %d" r
  | Lose rpc -> Printf.sprintf "lose rpc %d's reply" rpc
  | None_delivered -> "deliver none"
  | All -> "deliver all"
  | All_but r -> Printf.sprintf "deliver all but %d's" r

type world = {
  n : int;
  nprocs : int;
  st : (item, string) T.state array;
  alive : bool array;
  parent : int option array;
  fresh : int array;
  pending : (int * (int * int * T.leaf list)) list array;
      (* per sender: rpc -> (tag, last destination, leaves) *)
  mutable msgs : msg list; (* sent, not yet delivered, oldest first *)
  mutable next_rpc : int;
  mutable next_item : int;
  mutable answered : item list;
  mutable completions : int;
  mutable entered : int list;
  mutable faults : int;
  mutable clock : float;
  mutable trail : event list; (* newest first *)
}

exception Violation of string

let copy w =
  {
    w with
    st = Array.copy w.st;
    alive = Array.copy w.alive;
    parent = Array.copy w.parent;
    fresh = Array.copy w.fresh;
    pending = Array.copy w.pending;
  }

let fail w fmt =
  Printf.ksprintf
    (fun m ->
      raise
        (Violation
           (Printf.sprintf "%s\n  after: %s" m
              (String.concat ", " (List.rev_map event_to_string w.trail)))))
    fmt

let static_parent r = if r = 0 then None else Some ((r - 1) / 2)
let is_leaf w r = (2 * r) + 1 >= w.n
let participants w = List.filter (is_leaf w) (List.init w.n Fun.id)
let interior w = List.filter (fun r -> r > 0 && not (is_leaf w r)) (List.init w.n Fun.id)

(* Session.heal with a root that never dies. *)
let heal w =
  Array.iteri
    (fun r _ ->
      let rec up q =
        match static_parent q with
        | None -> None
        | Some p -> if w.alive.(p) then Some p else up p
      in
      w.parent.(r) <- (if w.alive.(r) then up r else None))
    w.parent

let children w r = List.filter (fun c -> w.parent.(c) = Some r) (List.init w.n Fun.id)
let send w m = w.msgs <- w.msgs @ [ m ]

let count_answer w it =
  if List.mem it w.answered then
    fail w "%s answered twice"
      (match it with
      | Client p -> Printf.sprintf "participant %d" p
      | Fwd { rpc; _ } -> Printf.sprintf "a delivery of rpc %d" rpc);
  w.answered <- it :: w.answered

(* The root has counted no participant twice: each leaf broker has one
   participant, so the count is the number of distinct origins. *)
let check_root w =
  match w.st.(0).T.root with
  | Some (T.Counting { counted; count; _ }) ->
    let origins, _ =
      T.Ids.fold (fun (o, _) (k, last) -> if o = last then (k, last) else (k + 1, o)) counted (0, -1)
    in
    if count <> origins then
      fail w "the root counted %d contributions from %d participants" count origins
  | _ -> ()

let rec step w r input =
  let s = w.st.(r) in
  let fresh = w.fresh.(r) in
  w.fresh.(r) <- fresh + 1;
  w.clock <- w.clock +. 1.0;
  let s', effects =
    T.step ~self:r ~fresh ~now:w.clock ~root:(r = 0) ~children:(fun () -> children w r) s input
  in
  w.st.(r) <- s';
  List.iter (perform w r) effects;
  check_root w

and perform w r = function
  | T.Forward (tag, b) -> (
    match w.parent.(r) with
    | Some p ->
      let rpc = w.next_rpc in
      w.next_rpc <- rpc + 1;
      w.pending.(r) <- (rpc, (tag, p, b.T.leaves)) :: w.pending.(r);
      send w (Req { rpc; src = r; dst = p; leaves = b.T.leaves })
    | None -> fail w "broker %d forwarded with no parent" r)
  | Arm _ -> send w (Tick r)
  | Complete items ->
    w.completions <- w.completions + 1;
    if w.completions > 1 then fail w "the name completed twice";
    List.iter (answer w r) items;
    step w r (T.Settled "ok")
  | Answer (items, _) -> List.iter (answer w r) items

and answer w r it =
  count_answer w it;
  match it with
  | Client _ -> ()
  | Fwd { rpc; src; _ } -> send w (Rsp { rpc; src = r; dst = src })

let deliver w m =
  match m with
  | Tick b -> if w.alive.(b) then step w b T.Check
  | Req { rpc; src; dst; leaves } ->
    if w.alive.(dst) && w.alive.(src) then begin
      let id = w.next_item in
      w.next_item <- id + 1;
      step w dst (T.Aggregate { leaves; from_child = src; item = Fwd { rpc; src; id } })
    end
  | Rsp { rpc; dst; _ } -> (
    match List.assoc_opt rpc w.pending.(dst) with
    | Some (tag, _, _) when w.alive.(dst) ->
      w.pending.(dst) <- List.remove_assoc rpc w.pending.(dst);
      step w dst (T.Replied { tag; outcome = T.Delivered; reply = "ok" })
    | _ -> ())

(* Deliver the first message [keep] rejects, until none is left. *)
let drain ?(keep = fun _ -> false) w =
  let budget = ref 10_000 in
  let rec go () =
    match List.partition keep w.msgs with
    | _, [] -> ()
    | kept, m :: rest ->
      decr budget;
      if !budget = 0 then fail w "messages never drain";
      w.msgs <- kept @ rest;
      deliver w m;
      go ()
  in
  go ()

(* A heal tells every live broker whose parent changed. *)
let reparent w =
  let before = Array.copy w.parent in
  heal w;
  Array.iteri (fun r p -> if w.alive.(r) && p <> before.(r) then step w r T.Rerouted) w.parent

let apply w ev =
  w.trail <- ev :: w.trail;
  match ev with
  | Enter p ->
    w.entered <- p :: w.entered;
    step w p (T.Enter { count = 1; item = Client p })
  | Kill r ->
    w.faults <- w.faults + 1;
    w.alive.(r) <- false;
    reparent w
  | Revive r ->
    w.faults <- w.faults + 1;
    w.alive.(r) <- true;
    w.st.(r) <- T.init w.nprocs;
    w.pending.(r) <- [];
    reparent w
  | Lose rpc ->
    w.faults <- w.faults + 1;
    w.msgs <- List.filter (function Rsp { rpc = q; _ } -> q <> rpc | _ -> true) w.msgs;
    Array.iteri
      (fun src ps ->
        match List.assoc_opt rpc ps with
        | Some (tag, _, leaves) -> (
          match w.parent.(src) with
          | Some p ->
            w.pending.(src) <- (rpc, (tag, p, leaves)) :: List.remove_assoc rpc ps;
            send w (Req { rpc; src; dst = p; leaves })
          | None -> ())
        | None -> ())
      w.pending
  | None_delivered -> ()
  | All -> drain w
  | All_but k -> drain ~keep:(fun m -> sender m = k) w

let check_drained w =
  let w = copy w in
  drain w;
  (match w.st.(0).T.root with
  | Some (T.Completed _) -> ()
  | _ -> fail w "once drained, the name has not completed");
  List.iter
    (fun p ->
      if not (List.mem (Client p) w.answered) then
        fail w "once drained, participant %d was never answered" p)
    (participants w);
  Array.iteri
    (fun r (s : _ T.state) ->
      if w.alive.(r) && T.open_below s then
        fail w "once drained, broker %d still holds the name open" r)
    w.st

let initial n =
  let nprocs = List.length (List.filter (fun r -> (2 * r) + 1 >= n) (List.init n Fun.id)) in
  let w =
    {
      n;
      nprocs;
      st = Array.make n (T.init nprocs);
      alive = Array.make n true;
      parent = Array.make n None;
      fresh = Array.make n 0;
      pending = Array.make n [];
      msgs = [];
      next_rpc = 0;
      next_item = 0;
      answered = [];
      completions = 0;
      entered = [];
      faults = 0;
      clock = 0.0;
      trail = [];
    }
  in
  heal w;
  w

let events w ~faults =
  let enters = List.filter (fun p -> not (List.mem p w.entered)) (participants w) in
  let faults =
    if w.faults >= faults then []
    else
      List.map (fun r -> if w.alive.(r) then Kill r else Revive r) (interior w)
      @ List.concat
          (List.mapi
             (fun r ps ->
               if w.alive.(r) && w.parent.(r) <> None then List.map (fun (rpc, _) -> Lose rpc) ps
               else [])
             (Array.to_list w.pending))
  in
  List.map (fun p -> Enter p) enters @ faults

let plans w =
  let senders = List.sort_uniq compare (List.map sender w.msgs) in
  if w.msgs = [] then [ None_delivered ]
  else
    None_delivered :: All
    :: (if List.length senders > 1 then List.map (fun k -> All_but k) senders else [])

(* Everything that decides the future, with the rpc and item numbers,
   the stamps and the clock left out so equal situations meet. Every
   number here is below 256. *)
let key w =
  let b = Buffer.create 128 in
  let int i = Buffer.add_char b (Char.chr i) in
  let leaves = List.iter (fun (l : T.leaf) -> int l.T.origin) in
  let item = function Client p -> int p | Fwd { src; _ } -> int (128 + src) in
  Array.iteri
    (fun r (s : _ T.state) ->
      int (if w.alive.(r) then 250 else 251);
      int (List.length w.pending.(r));
      if T.open_below s then begin
        int (if s.T.own > 0 then 252 else 253);
        leaves s.T.leaves;
        int 255;
        List.iter item s.T.parked;
        int 255;
        int (List.length s.T.inflight)
      end;
      match s.T.root with
      | Some (T.Counting { counted; parked; _ }) ->
        int 254;
        T.Ids.iter (fun (o, _) -> int o) counted;
        int 255;
        int (List.length parked)
      | Some (T.Completed { reply; late }) ->
        int (if reply = None then 248 else 249);
        int (List.length late)
      | None -> ())
    w.st;
  int 255;
  List.iter
    (function
      | Req { src; dst; leaves = l; _ } ->
        int 240;
        int src;
        int dst;
        leaves l
      | Rsp { src; dst; _ } ->
        int 241;
        int src;
        int dst
      | Tick r ->
        int 242;
        int r)
    w.msgs;
  int 255;
  List.iter int (List.sort compare w.entered);
  int 255;
  int w.faults;
  int w.completions;
  List.iter int (List.sort compare (List.filter_map (function Client p -> Some p | Fwd _ -> None) w.answered));
  Buffer.contents b

let explore ~faults n =
  let seen = Hashtbl.create 100_000 in
  let rec go w =
    if List.length w.entered = w.nprocs then check_drained w;
    List.iter
      (fun ev ->
        let w1 = copy w in
        apply w1 ev;
        List.iter
          (fun plan ->
            let w2 = copy w1 in
            apply w2 plan;
            let k = key w2 in
            if not (Hashtbl.mem seen k) then begin
              Hashtbl.add seen k ();
              go w2
            end)
          (plans w1))
      (events w ~faults)
  in
  go (initial n);
  Hashtbl.length seen

let enumerate n () =
  match explore ~faults:3 n with
  | count -> Printf.printf "up to 3 faults: %d distinct states\n" count
  | exception Violation m -> Alcotest.fail m

(* The double count of shard seed 99 in its shortest form: broker 1
   dies while its child 4 has forwarded to it, so 4 re-forwards to the
   root; 1 revives and the heal moves 4 back under it; 4's reply is lost
   and it retransmits to 1, which has never seen the batch and forwards
   it again. The root must count participant 4 once. *)
let double_count () =
  match
    let w = initial 5 in
    List.iter (apply w) [ Kill 1; Enter 4; All; Revive 1; All; Enter 2; Enter 3 ];
    check_drained w
  with
  | () -> ()
  | exception Violation m -> Alcotest.fail m

let () =
  Alcotest.run "tally"
    [
      ( "regression",
        [ Alcotest.test_case "re-aggregated retransmit counted once" `Quick double_count ] );
      ( "enumerate",
        [
          Alcotest.test_case "5 brokers" `Quick (enumerate 5);
          Alcotest.test_case "6 brokers" `Quick (enumerate 6);
          Alcotest.test_case "7 brokers" `Quick (enumerate 7);
        ] );
    ]
