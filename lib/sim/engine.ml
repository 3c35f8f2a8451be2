module Heap = Flux_util.Heap

(* A handle knows how many copies of itself sit in the queue so that
   [cancel] can account for them without touching the heap. [every]
   reuses one handle across every tick it schedules. *)
type t = {
  queue : event Heap.t;
  mutable clock : float;
  mutable executed : int;
  mutable cancelled_pending : int;
  mutable compactions : int;
}

and handle = { mutable cancelled : bool; mutable in_heap : int; eng : t }

and event = { h : handle; fn : unit -> unit }

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
    Heap.filter t.queue (fun ev ->
        if ev.h.cancelled then begin
          ev.h.in_heap <- ev.h.in_heap - 1;
          false
        end
        else true);
    t.cancelled_pending <- 0;
    t.compactions <- t.compactions + 1
  end

let push_event t ~time h fn =
  Heap.push t.queue time { h; fn };
  h.in_heap <- h.in_heap + 1

let schedule_at t ~time fn =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time t.clock);
  let h = { cancelled = false; in_heap = 0; eng = t } in
  push_event t ~time h fn;
  h

let schedule t ~delay fn =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) fn

let cancel h =
  if not h.cancelled then begin
    h.cancelled <- true;
    let t = h.eng in
    t.cancelled_pending <- t.cancelled_pending + h.in_heap;
    maybe_compact t
  end

let every t ~period fn =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  (* A persistent handle: cancelling it stops the chain of reschedules.
     Each queued tick still rides its own fresh handle, so a tick already
     in flight when the chain is cancelled fires as a no-op — the clock
     and event count advance exactly as they always did. [tick] is the
     only closure this loop ever allocates; reschedules push it as-is. *)
  let h = { cancelled = false; in_heap = 0; eng = t } in
  let rec tick () =
    if not h.cancelled then begin
      fn ();
      if not h.cancelled then ignore (schedule t ~delay:period tick : handle)
    end
  in
  ignore (schedule t ~delay:period tick : handle);
  h

(* Cancelled events are drained without advancing the clock: a timer
   that was disarmed (e.g. an RPC deadline whose response arrived) must
   not distort the simulation's end time. *)
let rec step t =
  match Heap.pop t.queue with
  | None -> false
  | Some (time, ev) ->
    ev.h.in_heap <- ev.h.in_heap - 1;
    if ev.h.cancelled then begin
      t.cancelled_pending <- t.cancelled_pending - 1;
      step t
    end
    else begin
      t.clock <- time;
      t.executed <- t.executed + 1;
      ev.fn ();
      true
    end

let run ?until t =
  let continue = ref true in
  while !continue do
    match Heap.peek t.queue with
    | None -> continue := false
    | Some (_, ev) when ev.h.cancelled ->
      ignore (Heap.pop t.queue : _ option);
      ev.h.in_heap <- ev.h.in_heap - 1;
      t.cancelled_pending <- t.cancelled_pending - 1
    | Some (time, _) -> (
      match until with
      | Some limit when time > limit ->
        t.clock <- limit;
        continue := false
      | _ -> ignore (step t : bool))
  done

let events_executed t = t.executed
