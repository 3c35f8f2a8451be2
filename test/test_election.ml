(* The KVS election, checked in small scope: every sequence of up to
   five liveness events (kill a live rank while another lives, or
   revive a dead one) over 4, 5 and 6 ranks and one rotated election
   order, with a bounded set of deliveries between events — none, all
   in FIFO order, or all but one rank's — driven through the same
   Election.step the store runs.

   The model is the session the store sees. A published setroot or
   hello is sequenced when delivered and reaches every live rank that
   has caught up with the event log, the publisher included; a revived
   rank replays what it missed before it hears anything newer. A peer
   round ends with the newest epoch its live peers report and a peer of
   that epoch that names itself master, if one does; a dead rank's round
   still ends, by timeout, with its own view, and a revived rank forgets
   the round it had out. A dead rank sends nothing.

   After every step: no two live ranks are master in one epoch, no
   rank opens a new epoch while the master of the newest epoch lives,
   and [Election.settled] tells the truth. Once the messages drain:
   exactly one live rank is master, and every live rank is thawed and
   agrees with it on epoch and master. A violation fails with the
   event sequence and the invariant it broke. *)

module E = Flux_kvs.Election

type msg =
  | Setroot of { src : int; epoch : int; master : int }
  | Hello of int
  | Round of { owner : int; epoch : int; master : int; peers : int list }
  | Replay of int

let sender = function
  | Setroot { src; _ } -> src
  | Hello r | Replay r -> r
  | Round { owner; _ } -> owner

type event = Kill of int | Revive of int | None_delivered | All | All_but of int

let event_to_string = function
  | Kill r -> Printf.sprintf "kill %d" r
  | Revive r -> Printf.sprintf "revive %d" r
  | None_delivered -> "deliver none"
  | All -> "deliver all"
  | All_but r -> Printf.sprintf "deliver all but %d's" r

type world = {
  order : int list;
  st : E.state array;
  alive : bool array;
  cursor : int array; (* log entries each rank has heard *)
  mutable log : msg list; (* sequenced events, oldest first *)
  mutable pending : msg list; (* sent, not yet delivered, oldest first *)
  mutable trail : event list; (* newest first *)
}

exception Violation of string

let copy w =
  { w with st = Array.copy w.st; alive = Array.copy w.alive; cursor = Array.copy w.cursor }

let fail w fmt =
  Printf.ksprintf
    (fun m ->
      raise
        (Violation
           (Printf.sprintf "%s\n  after: %s" m
              (String.concat ", " (List.rev_map event_to_string w.trail)))))
    fmt

let phase_to_string = function
  | E.Thawed -> "thawed"
  | Taking_over -> "taking over"
  | Rejoining -> "rejoining"

let describe w =
  String.concat "; "
    (List.mapi
       (fun r (s : E.state) ->
         Printf.sprintf "%d%s: epoch %d, master %d%s, %s" r
           (if w.alive.(r) then "" else " (dead)")
           s.epoch s.master
           (if s.is_master then " (is master)" else "")
           (phase_to_string s.phase))
       (Array.to_list w.st))

let n_of w = Array.length w.st
let newest w = Array.fold_left (fun m (s : E.state) -> max m s.E.epoch) 0 w.st

let live_masters w =
  List.filter (fun r -> w.alive.(r) && w.st.(r).E.is_master) (List.init (n_of w) Fun.id)

let send w m = w.pending <- w.pending @ [ m ]

let rec step w r input =
  let s = w.st.(r) in
  let top = newest w in
  let next = E.step ~self:r ~order:w.order ~live:(fun q -> w.alive.(q)) in
  let s', effects = next s input in
  (if s'.E.epoch > top then
     match List.find_opt (fun m -> w.st.(m).E.epoch = top) (live_masters w) with
     | Some m -> fail w "rank %d opened epoch %d while %d, master of epoch %d, lives" r s'.E.epoch m top
     | None -> ());
  List.iter
    (fun master ->
      if E.settled s' ~epoch:s'.E.epoch ~master then
        let s'', e = next s' (Adopted { epoch = s'.E.epoch; master }) in
        if s'' <> s' || e <> [ E.Adopt ] then fail w "settled lied at rank %d" r)
    [ s'.E.master; -1 ];
  w.st.(r) <- s';
  List.iter
    (function
      | E.Ask_peers ->
        let peers = List.filter (fun q -> q <> r && w.alive.(q)) w.order in
        send w (Round { owner = r; epoch = s'.E.epoch; master = s'.E.master; peers })
      | Publish_setroot ->
        if w.alive.(r) then send w (Setroot { src = r; epoch = s'.E.epoch; master = s'.E.master })
      | Publish_hello -> if w.alive.(r) then send w (Hello r)
      | Forget ->
        w.pending <- List.filter (function Round { owner; _ } -> owner <> r | _ -> true) w.pending
      | Adopt | Promote | Demote | Thaw -> ())
    effects;
  match live_masters w with
  | a :: rest -> (
    match List.find_opt (fun b -> w.st.(b).E.epoch = w.st.(a).E.epoch) rest with
    | Some b -> fail w "ranks %d and %d are both master of epoch %d" a b w.st.(a).E.epoch
    | None -> ())
  | [] -> ()

and hear w r = function
  | Setroot { epoch; master; _ } -> step w r (Adopted { epoch; master })
  | Hello h -> step w r (Hello h)
  | Round _ | Replay _ -> assert false

and catch_up w r =
  if w.alive.(r) && w.cursor.(r) < List.length w.log then begin
    let m = List.nth w.log w.cursor.(r) in
    w.cursor.(r) <- w.cursor.(r) + 1;
    hear w r m;
    catch_up w r
  end

let deliver w = function
  | (Setroot _ | Hello _) as m ->
    let at = List.length w.log in
    w.log <- w.log @ [ m ];
    for r = 0 to n_of w - 1 do
      if w.alive.(r) && w.cursor.(r) = at then begin
        w.cursor.(r) <- at + 1;
        hear w r m
      end
    done
  | Round { owner; epoch; master; peers } ->
    let epoch, master =
      if not w.alive.(owner) then (epoch, master)
      else
        List.fold_left
          (fun (e, m) p ->
            let s = w.st.(p) in
            if (not w.alive.(p)) || s.E.epoch < e then (e, m)
            else if s.E.master = p then (s.E.epoch, p)
            else if s.E.epoch > e then (s.E.epoch, -1)
            else (e, m))
          (epoch, master) peers
    in
    step w owner (Round_ended { epoch; master })
  | Replay r -> catch_up w r

(* Deliver the first pending message [keep] rejects, until none is left. *)
let drain ?(keep = fun _ -> false) w =
  let budget = ref 10_000 in
  let rec go () =
    match List.partition keep w.pending with
    | _, [] -> ()
    | kept, m :: rest ->
      decr budget;
      if !budget = 0 then fail w "messages never drain";
      w.pending <- kept @ rest;
      deliver w m;
      go ()
  in
  go ()

let apply w ev =
  w.trail <- ev :: w.trail;
  match ev with
  | Kill r ->
    w.alive.(r) <- false;
    for q = 0 to n_of w - 1 do
      step w q (Died r)
    done
  | Revive r ->
    w.alive.(r) <- true;
    send w (Replay r);
    step w r Revived
  | None_delivered -> ()
  | All -> drain w
  | All_but k -> drain ~keep:(fun m -> sender m = k) w

let check_drained w =
  let w = copy w in
  drain w;
  match live_masters w with
  | [ m ] ->
    let sm = w.st.(m) in
    Array.iteri
      (fun r (s : E.state) ->
        if w.alive.(r) && (s.E.phase <> Thawed || s.E.epoch <> sm.E.epoch || s.E.master <> m) then
          fail w "once drained, rank %d disagrees with master %d: %s" r m (describe w))
      w.st
  | [] -> fail w "once drained, no live rank is master: %s" (describe w)
  | _ -> fail w "once drained, several live ranks are master: %s" (describe w)

let initial order =
  let n = List.length order in
  let master = List.hd order in
  {
    order;
    st = Array.init n (fun r -> E.init ~self:r ~master);
    alive = Array.make n true;
    cursor = Array.make n 0;
    log = [];
    pending = [];
    trail = [];
  }

let liveness w =
  let n = n_of w in
  let up = List.filter (fun r -> w.alive.(r)) (List.init n Fun.id) in
  List.filter_map
    (fun r ->
      if not w.alive.(r) then Some (Revive r)
      else if List.length up > 1 then Some (Kill r)
      else None)
    (List.init n Fun.id)

let plans w =
  let senders = List.sort_uniq compare (List.map sender w.pending) in
  if w.pending = [] then [ None_delivered ]
  else
    None_delivered :: All
    :: (if List.length senders > 1 then List.map (fun k -> All_but k) senders else [])

(* Everything that decides the future: the log before the slowest
   cursor is heard everywhere and drops out. *)
let key w depth =
  let base = Array.fold_left min max_int w.cursor in
  let log = List.filteri (fun i _ -> i >= base) w.log in
  Marshal.to_string (depth, w.st, w.alive, Array.map (fun c -> c - base) w.cursor, log, w.pending) []

let explore ~events order =
  let seen = Hashtbl.create 100_000 in
  let rec go w depth =
    check_drained w;
    if depth < events then
      List.iter
        (fun ev ->
          let w1 = copy w in
          apply w1 ev;
          List.iter
            (fun plan ->
              let w2 = copy w1 in
              apply w2 plan;
              let k = key w2 (depth + 1) in
              if not (Hashtbl.mem seen k) then begin
                Hashtbl.add seen k ();
                go w2 (depth + 1)
              end)
            (plans w1))
        (liveness w)
  in
  go (initial order) 0;
  Hashtbl.length seen

(* One event, then two, up to five, so a violation is reported with the
   shortest sequence that shows it. *)
let enumerate order () =
  match List.map (fun events -> explore ~events order) [ 1; 2; 3; 4; 5 ] with
  | counts -> List.iteri (fun i n -> Printf.printf "%d events: %d distinct states\n" (i + 1) n) counts
  | exception Violation m -> Alcotest.fail m

(* The no-master fault in the shortest form the enumerator finds with
   the rejoin rules of seeds 58, 318 and 2372 undone: master 0 dies and
   rank 1 starts its takeover; 0 revives believing it still leads; 1
   dies before its round ends. Ranks 2 and 3 elect 0, the lowest live
   rank, which must take over although the death is not of the master
   it believed in; 1's round ends at a dead rank and must not promote
   it. *)
let no_master () =
  match
    let w = initial [ 0; 1; 2; 3 ] in
    List.iter (apply w)
      [ Kill 0; None_delivered; Revive 0; None_delivered; Kill 1; None_delivered ];
    check_drained w
  with
  | () -> ()
  | exception Violation m -> Alcotest.fail m

let () =
  let range n = List.init n Fun.id in
  Alcotest.run "election"
    [
      ( "regression",
        [
          Alcotest.test_case "no-master: master dies, old master revives, new master dies" `Quick
            no_master;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "4 ranks" `Quick (enumerate (range 4));
          Alcotest.test_case "5 ranks" `Quick (enumerate (range 5));
          Alcotest.test_case "6 ranks" `Quick (enumerate (range 6));
          Alcotest.test_case "5 ranks, rotated order" `Quick (enumerate [ 2; 3; 4; 0; 1 ]);
        ] );
    ]
