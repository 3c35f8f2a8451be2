module Heap = Flux_util.Heap

(* One record per scheduled event: the queue entry is the caller's
   cancellation handle. Its state lets [cancel] count a cancelled entry
   that still sits in the queue without touching the heap, and [cancel]
   swaps [fn] for a no-op so the entry pins nothing until it drains. *)
type t = {
  queue : handle Heap.t;
  mutable clock : float;
  mutable executed : int;
  mutable cancelled_pending : int;
  mutable compactions : int;
}

and handle = { mutable fn : unit -> unit; eng : t; mutable state : state }

(* [Queued] from scheduling until the event fires ([Idle]) or is
   cancelled. The handle [every] returns is never queued, so it starts
   [Idle]. *)
and state = Queued | Idle | Cancelled

(* Below this size the lazy drain in [step] is already cheap; compacting
   would just churn the array. *)
let compact_floor = 64

let create () =
  (* The queue must exist before any handle can point back at the
     engine, so the record is built first and handles close over it. *)
  { queue = Heap.create (); clock = 0.0; executed = 0; cancelled_pending = 0; compactions = 0 }

let now t = t.clock

let compactions t = t.compactions

(* Cancelled entries never advance the clock or the executed count (see
   [step]), so dropping them early is unobservable through the public
   API. Compact when they outnumber the live entries. *)
let maybe_compact t =
  let len = Heap.length t.queue in
  if len >= compact_floor && t.cancelled_pending > len - t.cancelled_pending then begin
    Heap.filter t.queue (fun h -> h.state <> Cancelled);
    t.cancelled_pending <- 0;
    t.compactions <- t.compactions + 1
  end

let schedule_at t ~time fn =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time t.clock);
  let h = { fn; eng = t; state = Queued } in
  Heap.push t.queue time h;
  h

let schedule t ~delay fn =
  if Float.is_nan delay then invalid_arg "Engine.schedule: NaN delay";
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) fn

let cancel h =
  if h.state <> Cancelled then begin
    let t = h.eng in
    if h.state = Queued then t.cancelled_pending <- t.cancelled_pending + 1;
    h.state <- Cancelled;
    h.fn <- ignore;
    maybe_compact t
  end

let every t ~period fn =
  if not (period > 0.0) then invalid_arg "Engine.every: period must be positive";
  (* A persistent handle: cancelling it stops the chain of reschedules.
     Each queued tick rides its own fresh handle, so a tick already in
     flight when the chain is cancelled fires as a no-op — the clock and
     event count advance exactly as they always did. [tick] is the only
     closure this loop ever allocates; reschedules push it as-is. *)
  let h = { fn = ignore; eng = t; state = Idle } in
  let rec tick () =
    if h.state <> Cancelled then begin
      fn ();
      if h.state <> Cancelled then ignore (schedule t ~delay:period tick : handle)
    end
  in
  ignore (schedule t ~delay:period tick : handle);
  h

(* Cancelled events are drained without advancing the clock: a timer
   that was disarmed (e.g. an RPC deadline whose response arrived) must
   not distort the simulation's end time. [live_head t] drops the
   cancelled entries at the head of the queue and tells whether an event
   remains to fire. *)
let rec live_head t =
  if Heap.is_empty t.queue then false
  else if (Heap.min_value t.queue).state <> Cancelled then true
  else begin
    Heap.drop_min t.queue;
    t.cancelled_pending <- t.cancelled_pending - 1;
    live_head t
  end

(* Fires the head of the queue, which [live_head] found live. *)
let fire t =
  let h = Heap.min_value t.queue in
  t.clock <- Heap.min_prio t.queue;
  Heap.drop_min t.queue;
  h.state <- Idle;
  t.executed <- t.executed + 1;
  h.fn ()

let step t =
  live_head t
  && begin
       fire t;
       true
     end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    if not (limit >= t.clock) then
      invalid_arg (Printf.sprintf "Engine.run: until %g is before now %g" limit t.clock);
    while live_head t && Heap.min_prio t.queue <= limit do
      fire t
    done;
    if not (Heap.is_empty t.queue) then t.clock <- limit

let events_executed t = t.executed
