module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Session = Flux_cmb.Session
module Flight = Flux_trace.Flight

type write = { mutable value : Json.t; acked_at : float; mutable skip : bool }

type t = {
  sess : Session.t;
  eng : Engine.t;
  flight : Flight.t option;
  writes : (string, write) Hashtbl.t;
  mutable order : (string * write) list; (* newest first *)
  horizons : (string, int) Hashtbl.t;
  mutable violations : string list; (* newest first *)
  mutable dead : int list; (* oldest first *)
  mutable kills : int;
  mutable revives : int;
  mutable first_kill : float option;
}

let create ?flight sess =
  {
    sess;
    eng = Session.engine sess;
    flight;
    writes = Hashtbl.create 256;
    order = [];
    horizons = Hashtbl.create 16;
    violations = [];
    dead = [];
    kills = 0;
    revives = 0;
    first_kill = None;
  }

let violate h fmt =
  Printf.ksprintf
    (fun s ->
      (* The first tripped guarantee preserves its own evidence before
         the trace moves on. *)
      (match h.flight with
      | Some f when h.violations = [] ->
        ignore (Flight.dump f ~rank:0 ~reason:("guarantee tripped: " ^ s) : Flight.dump)
      | _ -> ());
      h.violations <- Printf.sprintf "t=%.3f %s" (Engine.now h.eng) s :: h.violations)
    fmt

let violations h = List.rev h.violations

let ack h key value =
  match Hashtbl.find_opt h.writes key with
  | Some w ->
    w.value <- value;
    w.skip <- false
  | None ->
    let w = { value; acked_at = Engine.now h.eng; skip = false } in
    Hashtbl.replace h.writes key w;
    h.order <- (key, w) :: h.order

let unknown h key = Option.iter (fun w -> w.skip <- true) (Hashtbl.find_opt h.writes key)
let expected h key = (Hashtbl.find h.writes key).value

let mismatch ~expect = function
  | Ok got when Json.equal got expect -> None
  | Ok _ -> Some "diverged"
  | Error e -> Some ("unreadable: " ^ e)

let check h ~label ~key ~expect result =
  Option.iter (violate h "%s: key %s %s" label key) (mismatch ~expect result)

let verify h ~label read =
  List.fold_left
    (fun n (key, w) ->
      if w.skip then n
      else begin
        Option.iter
          (fun m -> violate h "%s: key %s %s (acked at t=%.3f)" label key m w.acked_at)
          (mismatch ~expect:w.value (read key));
        n + 1
      end)
    0 (List.rev h.order)

let horizon h who = Option.value ~default:0 (Hashtbl.find_opt h.horizons who)

let observe h ~who ~label v =
  let seen = horizon h who in
  if v < seen then violate h "%s: %s version regressed %d -> %d" who label seen v
  else Hashtbl.replace h.horizons who v

let committed h ~who v =
  let seen = horizon h who in
  if v <= seen then violate h "%s: commit version %d not newer than seen %d" who v seen;
  Hashtbl.replace h.horizons who (max seen v)

let kill h r =
  if not (Session.is_down h.sess r) then begin
    Session.mark_down h.sess r;
    h.dead <- h.dead @ [ r ];
    h.kills <- h.kills + 1;
    if h.first_kill = None then h.first_kill <- Some (Engine.now h.eng)
  end

let revive h r =
  if Session.is_down h.sess r then begin
    Session.mark_up h.sess r;
    h.dead <- List.filter (( <> ) r) h.dead;
    h.revives <- h.revives + 1
  end

let outage h r ~for_ =
  kill h r;
  Proc.sleep for_;
  revive h r

let dead h = h.dead
let kills h = h.kills
let revives h = h.revives
let first_kill h = h.first_kill
